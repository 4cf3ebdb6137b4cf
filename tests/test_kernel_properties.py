"""Property tests of the transport kernel through the public functions.

Random even grids n in [8, 64], filter scales alpha in [2^-12, 1] and seeds.
The vorticity equation and its linearization go through the same
de-aliased kernel, so these identities pin it from two sides; a
full-layout evaluation with complex transforms pins its band layout, and
numpy's own irfft2/rfft2 pin the pruned transforms under it.  The tangent
orthonormalization is pinned by the factorization it must produce, and its
weighted band view by the inner products of the full-layout fields.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bardina.dynamics import make_state, make_tangents, simulate, variational_rhs, vorticity_rhs
from bardina.dynamics import _Work, _band_weight, _check_real_coeffs, _orthonormalize
from bardina.spectral import (
    ModelParams,
    SpectralField,
    curl,
    hermitianize,
    make_grid,
    smooth,
    random_field,
    stream_velocity,
)
from bardina.spectral import _band, _full, _half, _sample_scratch, _samples, _spectrum, _unband

from conftest import alpha_inner

GRIDS = st.integers(4, 32).map(lambda half: 2 * half)
ALPHAS = st.floats(2.0**-12, 1.0)
SEEDS = st.integers(0, 2**32 - 1)
FEW = settings(max_examples=25, deadline=None)


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _full_band_field(grid, rng):
    """Real zero-mean field with every mode filled, the Nyquist ones too."""
    shape = (grid.n, grid.n)
    c = hermitianize(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    c[0, 0] = 0.0
    return SpectralField(grid, c)


def _reference_jacobian(grid, a, b):
    # full-layout evaluation with complex transforms: the 2/3 rule on the
    # inputs and on the product, real parts of the samples, zero mean
    n2 = grid.n**2

    def d(c, k):
        return np.fft.ifft2(1j * k * np.where(grid.dealias, c, 0.0)).real * n2

    prod = d(a, grid.k1) * d(b, grid.k2) - d(a, grid.k2) * d(b, grid.k1)
    out = np.where(grid.dealias, np.fft.fft2(prod) / n2, 0.0)
    out[0, 0] = 0.0
    return out


def _assert_real_zero_mean(grid, c):
    neg = grid._neg
    assert c[0, 0] == 0.0
    assert np.array_equal(c, np.conj(c[neg, :][:, neg]))


@FEW
@given(n=GRIDS, alpha=ALPHAS, seed=SEEDS)
def test_linearization_is_polarized_vorticity_rhs(n, alpha, seed):
    # the transport term is quadratic, so with zero forcing
    # curl L(theta) = (F(omega + zeta) - F(omega - zeta)) / 2 with zeta = curl theta
    rng = _rng(seed)
    grid = make_grid(n)
    params = ModelParams(alpha=alpha, gamma=1.0)
    omega = random_field(grid, rng)
    (theta,) = make_tangents(grid, 1, alpha, rng)
    zeta = curl(theta)
    got = curl(variational_rhs(theta, make_state(omega, params))).coeffs
    plus, minus = (vorticity_rhs(make_state(SpectralField(grid, c), params)).coeffs
                   for c in (omega.coeffs + zeta.coeffs, omega.coeffs - zeta.coeffs))
    scale = max(np.abs(plus).max(), np.abs(minus).max())
    assert np.abs(got - 0.5 * (plus - minus)).max() <= 1e-12 * scale


@FEW
@given(n=GRIDS, alpha=ALPHAS, seed=SEEDS)
@example(n=18, alpha=1.0 / 64.0, seed=1)
@example(n=30, alpha=1.0 / 64.0, seed=2)
def test_half_spectrum_kernel_matches_full_layout(n, alpha, seed):
    # the half-spectrum transforms against complex full-layout ones; n with
    # 3 | n and odd n/2 pin the k2 = 0 and Nyquist columns of the layout
    rng = _rng(seed)
    grid = make_grid(n)
    gamma = 0.5
    omega, fc = (_full_band_field(grid, rng) for _ in range(2))
    state = make_state(omega, ModelParams(alpha=alpha, gamma=gamma), forcing_curl=fc)
    w = state.omega.coeffs
    inv_smooth = 1.0 / (1.0 + alpha * grid.k_sq)
    psi = np.divide(-inv_smooth * w, grid.k_sq, out=np.zeros_like(w), where=grid.k_sq > 0)
    transport = -_reference_jacobian(grid, psi, inv_smooth * w)
    rhs = vorticity_rhs(state).coeffs
    want = transport - gamma * w + fc.coeffs
    assert np.abs(rhs - want).max() <= 1e-13 * np.abs(transport).max()
    _assert_real_zero_mean(grid, rhs)

    # the tangent rows, in velocity-product form, against the Jacobian form
    theta = stream_velocity(_full_band_field(grid, rng))
    z = curl(theta).coeffs
    psi_z = np.divide(-inv_smooth * z, grid.k_sq, out=np.zeros_like(z), where=grid.k_sq > 0)
    transport = -_reference_jacobian(grid, psi_z, inv_smooth * w)
    transport -= _reference_jacobian(grid, psi, inv_smooth * z)
    got = curl(variational_rhs(theta, state)).coeffs
    assert np.abs(got - (transport - gamma * z)).max() <= 1e-13 * np.abs(transport).max()


@FEW
@given(n=st.integers(2, 32).map(lambda half: 2 * half), seed=SEEDS)
@example(n=6, seed=1)
@example(n=18, seed=2)
@example(n=30, seed=3)
def test_pruned_transforms_match_numpy(n, seed):
    # the transforms read and write the 2/3 band only; the values are
    # numpy's to the bit, up to the signs of zeros.  Both directions share
    # one scratch, in any order: each call leaves its columns k2 > K zero
    rng = _rng(seed)
    grid = make_grid(n)
    cut = grid.cut
    shape = (2, 2 * cut + 1, cut + 1)

    def draw():
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    band, ops = draw(), draw()
    assert np.array_equal(_band(grid, _unband(grid, band)), band)
    out, spec = np.empty((2, n, n)), np.empty(shape, dtype=complex)
    scratch = _sample_scratch(grid, 2)
    half, pad = scratch
    assert half.shape == (2, n, n // 2 + 1) and pad.shape == (2, n, cut + 1)
    assert pad.flags.c_contiguous
    for _ in range(3):
        for band in (band, draw()):
            want = np.fft.irfft2(_unband(grid, ops * band), s=(n, n), norm="forward")
            kept = band.copy()
            assert _samples(grid, ops, band, out=out, scratch=scratch) is out
            assert np.array_equal(out, want)
            assert np.array_equal(kept, band)  # the input is never written
            assert not pad[:, cut + 1 : n - cut].any()  # the rows K < |k1| stay zero

        for f in (2, 1):
            samples = rng.standard_normal((f, n, n))
            want = np.fft.rfft2(samples, norm="forward")
            want[..., 0, 0] = 0.0
            want[..., 0] = 0.5 * (want[..., 0] + np.conj(want[..., grid._neg, 0]))
            want = _band(grid, want)
            got = spec[:f]
            assert _spectrum(grid, samples, out=got, scratch=scratch) is got
            assert np.array_equal(got, want)
            assert not half[..., cut + 1 :].any()
            assert not pad[:, cut + 1 : n - cut].any()


@FEW
@given(n=GRIDS, alpha=ALPHAS, seed=SEEDS)
def test_transport_is_skew(n, alpha, seed):
    # the transport T = -J(psibar, omegabar) of the unforced equation is
    # orthogonal to both arguments: (psibar, T) = (omegabar, T) = 0
    rng = _rng(seed)
    grid = make_grid(n)
    state = make_state(random_field(grid, rng), ModelParams(alpha=alpha, gamma=1.0))
    transport = vorticity_rhs(state).coeffs + state.omega.coeffs
    omegabar = smooth(state.omega, alpha).coeffs
    psibar = np.divide(-omegabar, grid.k_sq, out=np.zeros_like(omegabar), where=grid.k_sq > 0)
    for f in (psibar, omegabar):
        ip = float(np.vdot(f, transport).real)
        assert abs(ip) <= 1e-12 * np.linalg.norm(f) * np.linalg.norm(transport)


@FEW
@given(n=GRIDS, alpha=ALPHAS, seed=SEEDS)
def test_velocity_vorticity_round_trip(n, alpha, seed):
    rng = _rng(seed)
    grid = make_grid(n)
    for theta in make_tangents(grid, 2, alpha, rng):
        back = stream_velocity(curl(theta)).coeffs
        assert np.abs(back - theta.coeffs).max() <= 1e-14 * np.abs(theta.coeffs).max()
    omega = random_field(grid, rng)
    back = curl(stream_velocity(omega)).coeffs
    assert np.abs(back - omega.coeffs).max() <= 1e-14 * np.abs(omega.coeffs).max()


def _velocities(grid, band):
    return [stream_velocity(SpectralField(grid, z))
            for z in _full(grid, _unband(grid, band, full=True))]


@FEW
@given(
    n=st.sampled_from([16, 32]),
    alpha=ALPHAS,
    log_scales=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=6),
    seed=SEEDS,
)
def test_orthonormalize_is_alpha_qr(n, alpha, log_scales, seed):
    # Q is alpha-orthonormal and real, and R = (q_i, a_j)_alpha satisfies
    # R^T R = Gram(a): the Cholesky factor of the Gram matrix is unique up to
    # signs, so this pins the growth factors |r_jj| without a second algorithm
    rng = _rng(seed)
    grid = make_grid(n)
    m = len(log_scales)
    zetas = np.stack([10.0**e * _band(grid, random_field(grid, rng).coeffs) for e in log_scales])
    ortho, growth = _orthonormalize(zetas, alpha)
    assert ortho.shape == zetas.shape
    a, q = _velocities(grid, zetas), _velocities(grid, ortho)
    for z in _full(grid, _unband(grid, ortho, full=True)):
        _check_real_coeffs(grid, z, "orthonormalized tangent")
    qq = np.array([[alpha_inner(qi, qj, alpha) for qj in q] for qi in q])
    assert np.abs(qq - np.eye(m)).max() <= 1e-12
    r = np.triu([[alpha_inner(qi, aj, alpha) for aj in a] for qi in q])
    gram = np.array([[alpha_inner(ai, aj, alpha) for aj in a] for ai in a])
    size = np.sqrt(np.diag(gram))
    assert np.all(np.abs(r.T @ r - gram) <= 1e-12 * np.outer(size, size))
    np.testing.assert_allclose(growth, np.abs(np.diag(r)), rtol=1e-12)


@FEW
@given(n=GRIDS, alpha=ALPHAS, m=st.integers(1, 5), seed=SEEDS)
@example(n=30, alpha=1.0 / 64.0, m=3, seed=4)
def test_band_gram_is_alpha_inner_of_full_layout(n, alpha, m, seed):
    # a band column k2 >= 1 stands for +-k, so with weight sqrt 2 on those
    # columns the real view has the Gram matrix of the full-layout fields
    rng = _rng(seed)
    grid = make_grid(n)
    zetas = np.stack([_band(grid, random_field(grid, rng).coeffs) for _ in range(m)])
    cols = (_band_weight(grid.cut, alpha)[0] * zetas).view(np.float64).reshape(m, -1)
    vel = _velocities(grid, zetas)
    want = np.array([[alpha_inner(u, v, alpha) for v in vel] for u in vel])
    size = np.sqrt(np.diag(want))
    assert np.all(np.abs(cols @ cols.T - want) <= 1e-13 * np.outer(size, size))


def _mirror(grid, half):
    """Full layout of half spectra by the fancy-index gather c(-k) = conj(c(k))."""
    n = grid.n
    out = np.empty(half.shape[:-1] + (n,), dtype=complex)
    out[..., : n // 2 + 1] = half
    out[..., n // 2 + 1 :] = np.conj(half[..., grid._neg, 1 : n // 2][..., ::-1])
    return out


def _same_bits(a, b):
    # equal values and equal signs of every zero, real and imaginary parts alike
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a.view(np.float64)), np.signbit(b.view(np.float64))))


@FEW
@given(n=st.integers(2, 32).map(lambda half: 2 * half), m=st.integers(0, 3), seed=SEEDS)
@example(n=6, m=0, seed=1)
@example(n=18, m=2, seed=2)
def test_full_layout_is_the_fancy_index_mirror(n, m, seed):
    # _full mirrors by two slice assignments in place, _Work.full writes band and
    # side entries straight into the full layout; both give the gather's bits,
    # signs of zeros included
    rng = _rng(seed)
    grid = make_grid(n)
    cut = grid.cut
    band = rng.standard_normal((1 + m, 2 * cut + 1, cut + 1)) * (1 + 1j)
    band[..., ::3, ::2] *= -0.0  # zeros of both signs
    assert _same_bits(_full(grid, _unband(grid, band, full=True)), _mirror(grid, _unband(grid, band)))

    state = make_state(_full_band_field(grid, rng), ModelParams(alpha=0.25, gamma=0.5),
                       forcing_curl=_full_band_field(grid, rng))
    stack = np.concatenate((_half(state.omega.coeffs)[None],
                            _unband(grid, band[1:]) + _half(_full_band_field(grid, rng).coeffs)))
    work = _Work(state, stack)
    for first, rows in ((0, 1 + m), (0, 1), (m, 1)):
        got = work.full(first, work.y[first : first + rows], work.side_y)
        want = _unband(grid, work.y[first : first + rows])
        r, i, j = work.side
        keep = (r >= first) & (r < first + rows)
        want[r[keep] - first, i[keep], j[keep]] = work.side_y[keep]
        assert _same_bits(got, _mirror(grid, want))
    assert _same_bits(work.full(0, work.y[:1], work.side_y)[0], state.omega.coeffs)


def _reference_sample(state):
    """energy() and the sums of _diagnostics as the plain expressions."""
    c, grid, alpha = state.omega.coeffs, state.grid, state.params.alpha
    w = 1.0 / (1.0 + alpha * grid.k_sq)
    mag = (c * np.conj(c)).real
    return (float((2.0 * np.pi) ** 2 * np.sum(mag * w)),
            float((2.0 * np.pi) ** 2 * np.sum(mag * w * w)),
            float((2.0 * np.pi) ** 2 * np.sum(mag * alpha * grid.k_sq * w * w)))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 64).map(lambda half: 2 * half), alpha=ALPHAS, seed=SEEDS,
       log_scale=st.floats(-3.0, 2.0))
@example(n=6, alpha=1.0, seed=1, log_scale=0.0)
@example(n=128, alpha=1.0 / 64.0, seed=2, log_scale=1.0)
def test_observer_sample_is_the_reference_expression(n, alpha, seed, log_scale):
    # energy and _diagnostics read a cached 1/(1+alpha|k|^2) and reuse one
    # temporary; their sums are those of the expressions to the bit, on a
    # checked state and on the states a run publishes
    rng = _rng(seed)
    grid = make_grid(n)
    state = make_state(SpectralField(grid, 10.0**log_scale * _full_band_field(grid, rng).coeffs),
                       ModelParams(alpha=alpha, gamma=1.0),
                       forcing_curl=_full_band_field(grid, rng))
    energy, enstrophy_bar, grad_bar = _reference_sample(state)
    assert state.energy() == energy
    r0_sq = 3.0 * energy
    row = state._diagnostics(r0_sq)
    assert (row.enstrophy_bar, row.grad_enstrophy_bar) == (enstrophy_bar, grad_bar)
    assert row.r0_margin == r0_sq - (enstrophy_bar + grad_bar)
    final, rows = simulate(state, 2e-6, 1e-6)
    energy, enstrophy_bar, grad_bar = _reference_sample(final)
    assert final.energy() == energy
    assert (rows[-1].enstrophy_bar, rows[-1].grad_enstrophy_bar) == (enstrophy_bar, grad_bar)
