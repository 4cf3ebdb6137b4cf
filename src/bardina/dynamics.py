"""Time integration of the damped, filtered vorticity dynamics.

The evolved scalar is the unfiltered vorticity omega with

    d/dt omega = -J(psibar, omegabar) - gamma*omega + curl g

where psibar is the stream function of the filtered velocity and
omegabar = (1 - alpha*Laplacian)^(-1) omega.  The damping and the constant
forcing are integrated exactly: the step works on w = omega - curl g / gamma
with the integrating factor e^(-gamma*t), and classical RK4 handles only the
quadratic transport term.  Two consequences worth knowing about:

* any state with vanishing transport term and omega = curl g / gamma is a
  fixed point of the discrete map bit for bit, not merely to O(dt^5);
* with g = 0 and a single-mode initial condition the discrete solution is
  exactly e^(-gamma*t) times the initial data.

Tangent vectors are zero-mean divergence-free velocity fields at the public
interface.  Inside the step they are propagated as vorticity perturbations
zeta = curl theta, by the exact derivative of the discrete step map: one
IF-RK4 routine advances the base and the tangents stage by stage as one
stack of band coefficients (below), base in row 0, and each tangent stage
applies -J(psibar', omegabar) - J(psibar, omegabar').  The tangents take
it in velocity-product (Basdevant) form,

    J(psibar, omegabar) = d1 d2 ((d1 psibar)^2 - (d2 psibar)^2)
                          - (d1^2 - d2^2)(d1 psibar d2 psibar),

differentiated along psibar': two derivative samples of each tangent and
the base samples of that stage, where the Jacobian form needs four.  The
identity is exact on 2/3-truncated fields, so both forms give the same
retained modes up to rounding.  The base row keeps the Jacobian form: on a
single wavevector its two products cancel exactly, which the fixed points
and the decay above rest on, while the velocity-product form leaves
rounding in modes its multipliers do not zero.  The derivatives and
multipliers come from one band operator table per (n, alpha).

Every integrator carries that stack as its 2/3-band coefficients only,
shape (1+m, 2K+1, K+1) with K = (n-1)//3 (see spectral): transport never
reaches the other modes.  Those of them that are nonzero, from the forcing
or from an input state, live in one side array and move by the integrating
factor alone, with the arithmetic the full layout gives them.  The stack
is expanded to the full FFT layout of the public fields only where a state
is handed out: simulate at its observer samples and its end, step and
step_with_tangents once per call.

Each integrator run owns one workspace (_Work), built where the run starts:
for the whole run in simulate and lyapunov_spectrum, once per call in step,
step_with_tangents, vorticity_rhs and variational_rhs.  It holds a copy of
the stack, so no input is ever written, and every buffer the stages need;
the transforms and the stage arithmetic write into it in place, in the
order of operations of the allocating form, so a step allocates nothing of
the grid's size and its result is the same to the bit.  Fields are checked
where they enter (SimState, _check_tangent), not where a run hands them out
(see _published).  simulate computes the absorbing radius once per run.

curl and stream_velocity convert at the edge; they are inverse to each
other on zero-mean divergence-free fields.  Lyapunov exponents come from
Benettin renormalization: lyapunov_spectrum carries base and tangents as
one stack for the whole run and, once per renormalization interval,
orthonormalizes the tangent rows in the filtered energy inner product by a
QR factorization of their weighted band coefficients.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .spectral import (
    FourierGrid,
    ModelParams,
    SpectralField,
    VectorField,
    _band,
    _band_grad,
    _band_index,
    _check_int,
    _check_real,
    _full,
    _half,
    _inverse_laplacian,
    _sample_scratch,
    _samples,
    _spectrum,
    _unband,
    curl,
    hermitianize,
    stream_velocity,
    zero_field,
)

__all__ = [
    "BlowUpError",
    "CFLError",
    "DiagnosticRow",
    "LyapunovReport",
    "SimState",
    "TangentBundle",
    "absorbing_radius",
    "make_state",
    "make_tangents",
    "lyapunov_spectrum",
    "simulate",
    "step",
    "step_with_tangents",
    "variational_rhs",
    "vorticity_rhs",
]


class CFLError(RuntimeError):
    """Raised when dt * max|ubar| exceeds the grid spacing."""


class BlowUpError(RuntimeError):
    """Raised when a step produces non-finite coefficients."""


def _check_real_coeffs(grid: FourierGrid, coeffs: np.ndarray, what: str) -> None:
    if coeffs.shape != (grid.n, grid.n):
        raise ValueError(f"{what} coefficients must have shape {(grid.n, grid.n)}, "
                         f"got {coeffs.shape}")
    scale = float(np.abs(coeffs).max())
    if not math.isfinite(scale):
        raise ValueError(f"{what} coefficients are not finite")
    tol = 1e-12 * max(scale, 1e-300)
    # one temporary, reused in place
    gap = coeffs[..., grid._neg, :][..., :, grid._neg]
    np.subtract(coeffs, np.conjugate(gap, out=gap), out=gap)
    if float(np.abs(gap).max()) > tol:
        raise ValueError(f"{what} coefficients are not Hermitian (field not real)")
    if np.abs(coeffs[..., 0, 0]).max() > tol:
        raise ValueError(f"{what} must have zero mean")


@dataclass
class SimState:
    """Vorticity snapshot plus everything needed to advance it.

    forcing_curl holds curl g; the vorticity equation never needs g itself.
    SimState(...), make_state, io.load_state and dataclasses.replace check that time
    is finite and omega and forcing_curl finite, real, zero-mean fields on one grid.
    """

    omega: SpectralField
    time: float
    params: ModelParams
    forcing_curl: SpectralField

    def __post_init__(self) -> None:
        if self.forcing_curl.grid.n != self.omega.grid.n:
            raise ValueError("omega and forcing_curl live on different grids")
        if not math.isfinite(self.time):
            raise ValueError(f"time must be finite, got {self.time!r}")
        _check_real_coeffs(self.omega.grid, self.omega.coeffs, "omega")
        _check_real_coeffs(self.forcing_curl.grid, self.forcing_curl.coeffs, "forcing_curl")

    @property
    def grid(self) -> FourierGrid:
        return self.omega.grid

    def energy(self) -> float:
        """||omegabar||^2 + alpha*||grad omegabar||^2, the absorbing-ball norm."""
        w = 1.0 / (1.0 + self.params.alpha * self.grid.k_sq)
        c = self.omega.coeffs
        return float((2.0 * np.pi) ** 2 * np.sum((c * np.conj(c)).real * w))

    def _diagnostics(self, r0_sq: float) -> "DiagnosticRow":
        """The observer sample of this state, given R0^2 of the flow, which a run
        computes once."""
        g = self.grid
        alpha = self.params.alpha
        w = 1.0 / (1.0 + alpha * g.k_sq)
        mag = (self.omega.coeffs * np.conj(self.omega.coeffs)).real
        enstrophy_bar = float((2.0 * np.pi) ** 2 * np.sum(mag * w * w))
        grad_bar = float((2.0 * np.pi) ** 2 * np.sum(mag * alpha * g.k_sq * w * w))
        margin = r0_sq - (enstrophy_bar + grad_bar)
        return DiagnosticRow(self.time, enstrophy_bar, grad_bar, margin)


@dataclass(frozen=True)
class DiagnosticRow:
    """One observer sample; r0_margin >= 0 means inside the absorbing ball."""

    time: float
    enstrophy_bar: float
    grad_enstrophy_bar: float
    r0_margin: float


def make_state(
    omega: SpectralField,
    params: ModelParams,
    forcing: VectorField | None = None,
    forcing_curl: SpectralField | None = None,
    time: float = 0.0,
) -> SimState:
    """Assemble a SimState, cleaning omega up to the stored invariants.

    Forcing may be given either as the vector field g or directly as curl g;
    omitting both means unforced dynamics.
    """
    if forcing is not None and forcing_curl is not None:
        raise ValueError("pass forcing or forcing_curl, not both")
    grid = omega.grid
    if forcing_curl is None:
        forcing_curl = zero_field(grid) if forcing is None else curl(forcing)
    if forcing_curl.grid.n != grid.n:
        raise ValueError("omega and forcing_curl live on different grids")
    c, fc = hermitianize(grid, omega.coeffs), hermitianize(grid, forcing_curl.coeffs)
    c[0, 0] = fc[0, 0] = 0.0
    return SimState(SpectralField(grid, c), time, params, SpectralField(grid, fc))


def absorbing_radius(params: ModelParams, g: VectorField) -> float:
    """Radius R0 of the absorbing ball in the filtered energy norm.

    R0^2 = min(||g||^2 / alpha, ||curl g||^2) / gamma^2.  Trajectories end up
    with ||omegabar||^2 + alpha*||grad omegabar||^2 below R0^2.
    """
    c = g.coeffs
    scale = max(float(np.abs(c).max()), 1e-300)
    if np.abs(c[:, 0, 0]).max() > 1e-12 * scale:
        raise ValueError("forcing must have zero mean")
    g_sq = g.l2_norm_sq()
    curl_sq = curl(g).l2_norm_sq()
    return math.sqrt(min(g_sq / params.alpha, curl_sq) / params.gamma**2)


def _r0_sq_from_curl(params: ModelParams, forcing_curl: SpectralField) -> float:
    # ||g||^2 of the divergence-free part recovered from curl g; gradient
    # parts of g never enter the vorticity equation, so this is the sharp
    # radius for the dynamics actually being integrated.
    grid = forcing_curl.grid
    mag = (forcing_curl.coeffs * np.conj(forcing_curl.coeffs)).real
    norm = (2.0 * np.pi) ** 2
    g_sq = norm * float(np.sum(mag * -_inverse_laplacian(grid.n)))
    curl_sq = norm * float(np.sum(mag))
    return min(g_sq / params.alpha, curl_sq) / params.gamma**2


@lru_cache(maxsize=16)
def _operators(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Band maps of omega to grad psibar and grad omegabar, and the
    multipliers 2 k1 k2 and k2^2 - k1^2 that take the spectra of the
    velocity products A'/2 and B' of a tangent row to its rate (see
    _rates)."""
    cut = (n - 1) // 3
    k1, k2, _ = _band_index(cut)
    k_sq = (k1 * k1 + k2 * k2).astype(np.float64)
    inv_smooth = 1.0 / (1.0 + alpha * k_sq)
    psi_mult = -np.divide(inv_smooth, k_sq, out=np.zeros_like(k_sq), where=k_sq > 0)
    grad = _band_grad(cut)
    ops = np.concatenate((grad * psi_mult, grad * inv_smooth))
    ik1, ik2 = grad
    mults = np.stack((-2.0 * ik1 * ik2, ik1 * ik1 - ik2 * ik2))
    for arr in (ops, mults):
        arr.setflags(write=False)
    return ops, mults


class _Work:
    """The buffers of one integrator run on the flow of a state.

    half is the stack (1+m, n, n//2+1) of half spectra the run starts from,
    omega in row 0; it is read once and never written.  y is the carried
    band stack (1+m, 2K+1, K+1).  The nonzero entries of half off the band,
    and those of curl g / gamma in row 0, are the side: side indexes them
    in half, side_y holds their values and side_shift the shift of each,
    zero in the tangent rows.  stage, rate and acc are the RK4 stage, one
    rate and the accumulated rate sum.  _rates and its transforms own the
    rest: scratch, the one pair of half spectra that every inverse and
    forward transform of the run goes through; base, the samples of grad
    psibar, and pert, those of grad omegabar, in which the base product is
    formed, and then of each tangent's a', b'; and, when m > 0, prod, a
    tangent's two products, and spec, their band spectra.  Only the band
    stacks grow with m: the grid-sized buffers are the same for every
    m >= 1, and two fields fewer when m = 0.  w and side_w receive
    omega - curl g / gamma on and off the band after each step.  _rates
    and _if_rk4 write only into these, so a step allocates nothing of the
    grid's size.
    """

    def __init__(self, state: SimState, half: np.ndarray) -> None:
        grid, params = state.grid, state.params
        n, cut, m = grid.n, grid.cut, len(half) - 1
        self.grid, self.params, self.forcing_curl = grid, params, state.forcing_curl
        self.ops, self.mults = _operators(n, params.alpha)
        shift = _half(state.forcing_curl.coeffs) / params.gamma
        self.shift = _band(grid, shift)
        self.y = _band(grid, half)
        off = np.ones(half.shape[1:], dtype=bool)
        off[: cut + 1, : cut + 1] = off[n - cut :, : cut + 1] = False
        live = off & (half != 0)
        live[0] |= off & (shift != 0)
        self.side = np.nonzero(live)
        self.side_y = half[self.side]
        self.side_shift = np.where(self.side[0] == 0, shift[self.side[1:]], 0.0)
        self.side_w = np.empty_like(self.side_y)
        self.stage, self.acc = np.empty_like(self.y), np.empty_like(self.y)
        self.rate = np.empty_like(self.y)
        self.spec = np.empty((2,) + self.y.shape[1:], dtype=complex) if m else None
        self.w = np.empty_like(self.y[0])
        self.scratch = _sample_scratch(grid, 2)
        self.base, self.pert = np.empty((2, n, n)), np.empty((2, n, n))
        self.prod = np.empty((2, n, n)) if m else None

    @cached_property
    def full_shift(self) -> np.ndarray:
        """curl g / gamma in the full layout, added to w by _published."""
        return self.forcing_curl.coeffs / self.params.gamma

    def full(self, first: int, band: np.ndarray, side: np.ndarray) -> np.ndarray:
        """Full-layout coefficients of the stack rows first, first + 1, ... from
        their band coefficients band and the stack's side values side."""
        out = _unband(self.grid, band)
        r, i, j = self.side
        keep = (r >= first) & (r < first + len(band))
        out[r[keep] - first, i[keep], j[keep]] = side[keep]
        return _full(self.grid, out)


def _rates(work: _Work, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Transport rates of a band stack y (1+m, 2K+1, K+1), written into
    work.rate, and max|ubar|.

    Row 0, the base omega, gets -J(psibar, omegabar) from the four samples
    of grad psibar and grad omegabar.  Each other row, a perturbation zeta,
    gets its exact derivative -J(psibar', omegabar) - J(psibar, omegabar')
    in velocity-product form: with a = d1 psibar, b = d2 psibar and
    omegabar = Laplacian psibar,

        J(psibar, omegabar) = d1 d2 (a^2 - b^2) - (d1^2 - d2^2)(a b),

    whose derivative needs only the two samples a', b' of the tangent:
    rate' = k1 k2 A' - (k1^2 - k2^2) B' with A' = 2 (a a' - b b') and
    B' = a b' + a' b, the 2 folded into the multiplier.  The identity holds
    exactly on the 2/3-truncated fields, so every retained mode is the same
    convolution sum as in the Jacobian form.  The base row keeps the
    Jacobian form, in which steady shears and single modes stay fixed to
    the bit (see the module docstring).  Every inverse transform takes one
    pair of fields: the base row makes two, grad psibar into work.base and
    grad omegabar into work.pert, and each tangent row one, of a', b' into
    work.pert.  Each row makes one forward transform of its products as
    soon as they are formed: the base row's in work.pert, a tangent's in
    work.prod.  All of them go through the one scratch work.scratch, so
    the grid-sized scratch holds two fields and one row's products
    whatever m is.  No damping term.  max|ubar| is the square root of the
    largest |ubar|^2, formed in work.pert before grad omegabar is sampled
    there: sqrt is monotone and correctly rounded, so that is the largest
    speed to the bit.  Each product keeps its operands and each difference
    and sum its order (IEEE products commute exactly).
    """
    grid, ops, rate, scratch, pert = work.grid, work.ops, work.rate, work.scratch, work.pert
    m = len(y) - 1
    grad_psi = ops[:2]
    d1psi, d2psi = _samples(grid, grad_psi, y[0], out=work.base, scratch=scratch)
    sq = np.multiply(d1psi, d1psi, out=pert[0])
    sq += np.multiply(d2psi, d2psi, out=pert[1])
    speed = math.sqrt(float(sq.max()))
    d1ob, d2ob = _samples(grid, ops[2:], y[0], out=pert, scratch=scratch)
    d1ob *= d2psi
    d2ob *= d1psi
    d1ob -= d2ob
    _spectrum(grid, pert[:1], out=rate[:1], scratch=scratch)
    mult_a, mult_b = work.mults
    for j in range(1, m + 1):
        d1p, d2p = _samples(grid, grad_psi, y[j], out=pert, scratch=scratch)
        a, b = work.prod
        np.multiply(d1psi, d1p, out=a)
        a -= np.multiply(d2psi, d2p, out=b)
        np.multiply(d1psi, d2p, out=b)
        d1p *= d2psi
        b += d1p
        a_spec, b_spec = _spectrum(grid, work.prod, out=work.spec, scratch=scratch)
        np.multiply(a_spec, mult_a, out=rate[j])
        b_spec *= mult_b
        rate[j] += b_spec
    return rate, speed


def vorticity_rhs(state: SimState) -> SpectralField:
    """Full right-hand side -J(psibar, omegabar) - gamma*omega + curl g."""
    grid = state.grid
    work = _Work(state, _half(state.omega.coeffs)[None])
    rates, _ = _rates(work, work.y)
    out = _full(grid, _unband(grid, rates[0])) - state.params.gamma * state.omega.coeffs
    return SpectralField(grid, out + state.forcing_curl.coeffs)


def _if_rk4(work: _Work, dt: float) -> None:
    """One integrating-factor RK4 step of the run's stack work.y, in place:
    omega in row 0 and tangent vorticities zeta below, on the flow (grid,
    params, forcing) of the run.

    The stages run on w = omega - curl g / gamma.  Tangent stage k applies
    the linearized transport at base stage k with the same integrating
    factors, so the tangents move by the exact derivative of the discrete
    base map.  Leaves the new stack in work.y, omega in row 0, and the new w
    in work.w; the side entries, which no transport reaches, go from y to
    e2 (y - shift) + shift, with w = e2 (y - shift) in work.side_w.  Publish
    omega as _full(w) + curl g / gamma (see _published); _full of the
    carried row can differ from it in the sign of zeros in the mirrored
    half.  Every stage checks dt * max|ubar| against the grid spacing; a
    non-finite omega raises BlowUpError, since a NaN speed passes that
    check.

    The step is e2 y + dt/6 (e2 g1 + 2 e1 g2 + 2 e1 g3 + g4), with each
    product and sum taken in that order, one rate at a time: the rate sum
    accumulates in work.acc as soon as the next stage is formed, and the
    rate buffer serves as scratch in between.
    """
    _check_real("dt", dt)
    grid, y, s, acc, shift = work.grid, work.y, work.stage, work.acc, work.shift
    e1 = math.exp(-work.params.gamma * dt / 2.0)
    e2 = e1 * e1
    half_dt, two_e1 = 0.5 * dt, 2.0 * e1

    def rates(stage: np.ndarray) -> np.ndarray:
        stage[0] += shift  # the base transport is taken at omega = w + curl g / gamma
        g, speed = _rates(work, stage)
        if dt * speed > grid.spacing():
            raise CFLError(
                f"dt*max|ubar| = {dt * speed:.3e} exceeds grid spacing "
                f"{grid.spacing():.3e}; reduce dt"
            )
        return g

    y[0] -= shift
    np.copyto(s, y)
    g = rates(s)  # g1
    np.multiply(g, e2, out=acc)
    np.multiply(g, half_dt, out=s)
    s += y
    s *= e1  # e1 (y + dt/2 g1)
    g = rates(s)  # g2
    np.multiply(g, half_dt, out=s)
    g *= two_e1
    acc += g
    s += np.multiply(y, e1, out=g)  # e1 y + dt/2 g2
    g = rates(s)  # g3
    np.multiply(g, dt * e1, out=s)
    g *= two_e1
    acc += g
    s += np.multiply(y, e2, out=g)  # e2 y + dt e1 g3
    acc += rates(s)  # g4
    acc *= dt / 6.0
    y *= e2
    y += acc
    np.copyto(work.w, y[0])
    y[0] += shift
    side_w = np.subtract(work.side_y, work.side_shift, out=work.side_w)
    side_w *= e2
    np.add(side_w, work.side_shift, out=work.side_y)
    if not np.isfinite(y[0]).all():
        raise BlowUpError(f"non-finite coefficients after a step of dt = {dt!r}")


def _unchecked(cls: type, *values):
    """Instance of the dataclass cls holding values, without its __post_init__ check."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip((f.name for f in fields(cls)), values))
    return obj


def _published(work: _Work, time: float) -> SimState:
    """The SimState at time on the run's flow, from w = omega - curl g / gamma.

    Not checked again: the forcing is the run's own, and omega keeps the symmetry
    and zero mean of the run's checked input, as _full mirrors exactly, _spectrum
    makes k = 0 zero and the k2 = 0 band column exactly Hermitian, and every other
    entry moves by real scalars.
    """
    c = work.full(0, work.w[None], work.side_w)[0]
    c += work.full_shift
    return _unchecked(SimState, SpectralField(work.grid, c), time, work.params, work.forcing_curl)


def step(state: SimState, dt: float) -> SimState:
    """Advance by one time step of size dt."""
    work = _Work(state, _half(state.omega.coeffs)[None])
    _if_rk4(work, dt)
    return _published(work, state.time + dt)


def _whole_count(start: float, end: float, unit: float, message: str) -> int:
    """(end - start) / unit if that is a whole number >= 0, to 1e-9 relative to
    max(1, |end|); otherwise (a non-finite end too) ValueError(message)."""
    if not math.isfinite(end):
        raise ValueError(message)
    count = int(round((end - start) / unit))
    if count < 0 or abs(start + count * unit - end) > 1e-9 * max(1.0, abs(end)):
        raise ValueError(message)
    return count


def simulate(
    state: SimState,
    t_end: float,
    dt: float,
    observe_every: int = 1,
    observers: tuple = (),
) -> tuple[SimState, list[DiagnosticRow]]:
    """Integrate to t_end, sampling diagnostics every observe_every steps.

    The initial state is always sampled; extra observer callables receive the
    state at the same instants.  Returns the final state and the rows.
    """
    _check_int("observe_every", observe_every, 1)
    _check_real("dt", dt)
    n_steps = _whole_count(state.time, t_end, dt,
                           f"t_end = {t_end} is not a whole number of steps from t = {state.time}")
    r0_sq = _r0_sq_from_curl(state.params, state.forcing_curl)
    rows = [state._diagnostics(r0_sq)]
    for obs in observers:
        obs(state)
    time, work = state.time, _Work(state, _half(state.omega.coeffs)[None])
    for i in range(1, n_steps + 1):
        _if_rk4(work, dt)
        time += dt
        if i % observe_every == 0 or i == n_steps:
            state = _published(work, time)
            rows.append(state._diagnostics(r0_sq))
            for obs in observers:
                obs(state)
    return state, rows


# ---------------------------------------------------------------------------
# linearized flow


def _check_tangent(grid: FourierGrid, theta: VectorField) -> None:
    """Tangents must be zero-mean and divergence-free: the vorticity form the
    propagator works in would drop any other part without notice."""
    if theta.grid.n != grid.n:
        raise ValueError("tangent and state live on different grids")
    c = theta.coeffs
    if c.shape != (2, grid.n, grid.n):
        raise ValueError(f"tangent coefficients must have shape {(2, grid.n, grid.n)}, "
                         f"got {c.shape}")
    tol = 1e-12 * max(float(np.abs(c).max()), 1e-300)
    if np.abs(c[:, 0, 0]).max() > tol:
        raise ValueError("tangent must have zero mean")
    if np.abs(grid.k1 * c[0] + grid.k2 * c[1]).max() > grid.n * tol:
        raise ValueError("tangent must be divergence-free")


def variational_rhs(theta: VectorField, state: SimState) -> VectorField:
    """Equation of variations: -gamma*theta - P[(ubar.grad)thetabar + (thetabar.grad)ubar].

    thetabar is the filtered tangent (1 - alpha*Laplacian)^(-1) theta and
    ubar the filtered base velocity; P is the Leray projection.  Evaluated
    in vorticity form, as -J(psibar', omegabar) - J(psibar, omegabar') - gamma*zeta
    with zeta = curl theta, and converted back to velocity at the edge.
    Linear in theta; theta must be zero-mean and divergence-free.
    """
    grid = state.grid
    _check_tangent(grid, theta)
    zeta = curl(theta).coeffs
    work = _Work(state, _half(np.stack((state.omega.coeffs, zeta))))
    rates, _ = _rates(work, work.y)
    out = _full(grid, _unband(grid, rates[1])) - state.params.gamma * zeta
    return stream_velocity(SpectralField(grid, out))


@dataclass
class TangentBundle:
    """A base trajectory point together with tangent velocity fields.

    Tangents must be zero-mean and divergence-free on the base grid.
    """

    base: SimState
    vectors: list[VectorField]

    def __post_init__(self) -> None:
        for v in self.vectors:
            _check_tangent(self.base.grid, v)


def step_with_tangents(bundle: TangentBundle, dt: float) -> TangentBundle:
    """Advance base and tangents together by one step.

    Tangents are propagated as vorticity perturbations zeta = curl theta by
    the exact Jacobian of the discrete base map (see _if_rk4) and converted
    back to velocity at the end.  The input stack is filled one curl at a
    time and released once the workspace holds its band, and the tangents
    go back to velocity one at a time, so the call holds one tangent's
    full-layout fields beside its workspace and its output.  The bundle is
    not checked again: the velocities of zero-mean vorticities are
    zero-mean and divergence-free.
    """
    state = bundle.base
    grid = state.grid
    half = np.empty((1 + len(bundle.vectors), grid.n, grid.n // 2 + 1), dtype=complex)
    half[0] = _half(state.omega.coeffs)
    for j, v in enumerate(bundle.vectors, 1):
        half[j] = _half(curl(v).coeffs)
    work = _Work(state, half)
    del half
    _if_rk4(work, dt)
    vectors = [stream_velocity(SpectralField(grid, work.full(j, work.y[j : j + 1], work.side_y)[0]))
               for j in range(1, len(work.y))]
    return _unchecked(TangentBundle, _published(work, state.time + dt), vectors)


# ---------------------------------------------------------------------------
# Lyapunov exponents


@dataclass(frozen=True)
class LyapunovReport:
    """Benettin estimates: exponents (descending), their standard errors,
    partial sums q(n), the Kaplan-Yorke interpolated dimension, and the
    number of renormalizations, transient included, that re-seeded a
    collapsed direction."""

    exponents: tuple[float, ...]
    standard_errors: tuple[float, ...]
    partial_sums: tuple[float, ...]
    lyapunov_dimension: float
    collapses: int = 0


def _random_tangent(grid: FourierGrid, rng: np.random.Generator) -> np.ndarray:
    """Band coefficients of a random tangent vorticity: -|k|^2 times a
    random stream function (its velocity is divergence-free by construction)."""
    n = grid.n
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    c = np.where(grid.dealias, c / (1.0 + grid.k_sq), 0.0)
    c[0, 0] = 0.0
    return _band(grid, -grid.k_sq * hermitianize(grid, c))


@lru_cache(maxsize=16)
def _band_weight(cut: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights of the band real view in the alpha inner product of tangent
    velocities, 2 pi / sqrt(|k|^2 (1+alpha|k|^2)) times sqrt 2 on the
    columns k2 >= 1, each of which stands for a +-k pair; 0 at k = 0.  And
    their inverses, 0 where the weight is (read-only)."""
    k1, k2, _ = _band_index(cut)
    k_sq = (k1 * k1 + k2 * k2).astype(np.float64)
    inv = np.divide(1.0 / (1.0 + alpha * k_sq), k_sq, out=np.zeros_like(k_sq), where=k_sq > 0)
    weight = 2.0 * np.pi * np.sqrt(inv)
    weight[:, 1:] *= math.sqrt(2.0)
    unweight = np.divide(1.0, weight, out=np.zeros_like(weight), where=weight > 0)
    for arr in (weight, unweight):
        arr.setflags(write=False)
    return weight, unweight


def _orthonormalize(zetas: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalize a band stack of tangent vorticities (m, 2K+1, K+1) in
    the alpha inner product of their velocities, by one QR factorization.

    That inner product weighs |zeta(k)|^2 by (2 pi)^2 / (|k|^2 (1+alpha|k|^2))
    over all k; a band column k2 >= 1 holds k and stands for -k too, so the
    weighted real view (2 (2K+1)(K+1), m) with _band_weight has the Gram
    matrix of the full layout, and its QR is Gram-Schmidt in that inner
    product.  Returns the orthonormal stack and the growth factors |r_jj|,
    which the Benettin accumulator needs.  A non-finite r_jj, or one at
    roundoff level against the input's own norm (the direction depends
    numerically on the previous ones), is returned as 0.0 and the slice
    zeroed; the caller decides how to re-seed.
    """
    m = zetas.shape[0]
    weight, unweight = _band_weight(zetas.shape[-1] - 1, alpha)
    cols = (weight * zetas).view(np.float64).reshape(m, -1).T
    q, r = np.linalg.qr(cols)
    growth = np.abs(np.diag(r))
    # the columns of r have the norms of those of cols, as q is orthonormal
    growth[~(growth > 1e-12 * np.linalg.norm(r, axis=0))] = 0.0
    q[:, growth == 0.0] = 0.0
    out = np.ascontiguousarray(q.T).view(complex).reshape(zetas.shape)
    out *= unweight  # in place: one stack fewer at the peak of a renormalization
    return out, growth


def _seed_tangents(grid: FourierGrid, m: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """Band stack of m random alpha-orthonormal tangent vorticities."""
    zetas, growth = _orthonormalize(np.stack([_random_tangent(grid, rng) for _ in range(m)]), alpha)
    if growth.min() <= 0.0:
        raise RuntimeError("random tangent seed collapsed; try another seed")
    return zetas


def make_tangents(
    grid: FourierGrid, n: int, alpha: float, rng: np.random.Generator
) -> list[VectorField]:
    """n random alpha-orthonormal divergence-free tangent fields."""
    _check_int("n", n, 1)
    zetas = _full(grid, _unband(grid, _seed_tangents(grid, n, alpha, rng)))
    return [stream_velocity(SpectralField(grid, z)) for z in zetas]


def _renormalize(
    grid: FourierGrid, zetas: np.ndarray, alpha: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Orthonormalize a band stack of tangent vorticities; re-seed collapsed
    directions.

    Returns the renormalized stack, the growth factors of the interval just
    ended, and whether any direction collapsed (growth factors are then
    meaningless and the caller must drop the interval).
    """
    zetas, growth = _orthonormalize(zetas, alpha)
    norms = growth
    for _ in range(5):
        if not (norms == 0.0).any():
            break
        for j in np.flatnonzero(norms == 0.0):
            zetas[j] = _random_tangent(grid, rng)
        zetas, norms = _orthonormalize(zetas, alpha)
    if (norms == 0.0).any():
        raise RuntimeError("tangent family keeps collapsing; cannot re-seed")
    return zetas, growth, bool((growth == 0.0).any())


def lyapunov_spectrum(
    initial: SimState,
    n: int,
    dt: float,
    renorm_every: int = 10,
    t_transient: float | None = None,
    t_average: float | None = None,
    seed: int = 0,
    blocks: int = 8,
) -> LyapunovReport:
    """Estimate the n leading Lyapunov exponents along a trajectory.

    The tangents are renormalized every renorm_every steps; log growth
    factors are accumulated over t_average after discarding t_transient.
    Standard errors come from splitting the averaging window into `blocks`
    (>= 2) contiguous blocks.  Both windows must be whole numbers of
    renormalization intervals renorm_every * dt (ValueError otherwise);
    the defaults are the whole numbers of intervals nearest 50/gamma and
    500/gamma.

    If a tangent collapses to zero (numerically degenerate family) it is
    re-seeded with a fresh random vector, a warning is issued, and the
    affected renormalization interval is excluded from the averages; the
    report counts these renormalizations in `collapses`.
    """
    _check_int("n", n, 1)
    _check_int("renorm_every", renorm_every, 1)
    _check_int("blocks", blocks, 2)  # a standard error needs two
    _check_real("dt", dt)
    span, gamma = renorm_every * dt, initial.params.gamma
    if t_transient is None:
        t_transient = round(50.0 / gamma / span) * span
    if t_average is None:
        t_average = round(500.0 / gamma / span) * span
    _check_real("t_transient", t_transient, zero_ok=True)
    _check_real("t_average", t_average)
    n_trans, n_avg = (_whole_count(0.0, window, span, f"{name} = {window!r} is not a whole "
                                   f"number of renorm_every * dt = {span!r} intervals")
                      for name, window in (("t_transient", t_transient), ("t_average", t_average)))
    if n_avg < blocks:
        raise ValueError("t_average too short for the requested block count")

    rng = np.random.default_rng(np.random.Philox(seed))
    grid, alpha = initial.grid, initial.params.alpha
    zetas = _unband(grid, _seed_tangents(grid, n, alpha, rng))
    work = _Work(initial, np.concatenate((_half(initial.omega.coeffs)[None], zetas)))
    logs = np.zeros((n_avg, n))
    keep = np.ones(n_avg, dtype=bool)
    collapses = 0
    for i in range(-n_trans, n_avg):
        for _ in range(renorm_every):
            _if_rk4(work, dt)
        zetas, norms, collapsed = _renormalize(grid, work.y[1:], alpha, rng)
        work.y[1:] = zetas
        collapses += collapsed
        if i < 0:
            if collapsed:
                warnings.warn("tangent family collapsed during transient; re-seeded")
        elif collapsed:
            warnings.warn("tangent family collapsed; interval dropped from averages")
            keep[i] = False
        else:
            logs[i] = np.log(norms)

    kept = logs[keep]
    if len(kept) < blocks:
        raise RuntimeError("too many collapsed intervals; averages unusable")
    exponents = kept.sum(axis=0) / (len(kept) * span)

    # block averages over the kept intervals for a crude error bar
    splits = np.array_split(kept, blocks)
    block_means = np.array([s.sum(axis=0) / (len(s) * span) for s in splits])
    stderr = block_means.std(axis=0, ddof=1) / math.sqrt(len(block_means))

    order = np.argsort(exponents)[::-1]
    exponents, stderr = exponents[order], stderr[order]
    partial = np.cumsum(exponents)
    return LyapunovReport(
        exponents=tuple(float(x) for x in exponents),
        standard_errors=tuple(float(x) for x in stderr),
        partial_sums=tuple(float(x) for x in partial),
        lyapunov_dimension=_kaplan_yorke(exponents, partial),
        collapses=collapses,
    )


def _kaplan_yorke(exponents: np.ndarray, partial: np.ndarray) -> float:
    """Interpolated zero crossing of n -> q(n); 0 if q(1) < 0, n if no crossing."""
    if partial[0] < 0.0:
        return 0.0
    for m in range(len(partial) - 1):
        if partial[m + 1] < 0.0:
            return float(m + 1 + partial[m] / abs(exponents[m + 1]))
    warnings.warn(
        "partial sums q(n) never crossed zero; dimension truncated at n "
        "(increase the number of tangent vectors)"
    )
    return float(len(partial))
