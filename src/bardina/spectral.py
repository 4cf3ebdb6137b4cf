"""Spectral representation of periodic fields on the square torus (0, 2*pi)^2.

Conventions used throughout the package:

* expansion          f(x) = sum_k fhat(k) exp(i k.x),  k integer lattice
* Parseval           ||f||_L2^2 = (2*pi)^2 * sum_k |fhat(k)|^2
* coefficient arrays follow the numpy FFT layout (wavenumber 0 first); the
  shifted layout -n/2 .. n/2-1 appears only in checkpoint files
* the mean mode k = 0 is excluded from the dynamics and kept at zero
* products are evaluated pseudo-spectrally with the 2/3-rule mask, so
  retained modes of a quadratic term carry no aliasing error

Fields are thin dataclasses around a complex (n, n) coefficient array plus
the grid that interprets it.  Operators are free functions; they return new
fields and never mutate their inputs.

The product kernel works on the 2/3 band of rfft2 half spectra: with
K = (n-1)//3 the mask keeps |k1|, |k2| <= K, so a real field's de-aliased
coefficients are its (2K+1, K+1) band entries, rows k1 = 0 .. K, -K .. -1
and columns k2 = 0 .. K.  Derivatives are read off cached, read-only band
multiplier tables with the k = 0 mode dropped.  Both directions share one
half-spectrum scratch per run, whose columns k2 > K are zero between
calls.  An inverse transform writes the band straight into the two row
blocks of the columns k2 <= K, zeroes their other rows, runs the column
ifft in place there and the row irfft from the whole array; a forward
transform runs the row rfft into the scratch and the column fft in place
on the columns k2 <= K only, copies the band rows out and zeroes the
columns k2 > K again.  No mask multiply is left.  Only the
k2 = 0 column of a band can be inexactly Hermitian and is symmetrized; the
expansion to the full layout is exact, so results are exactly real
without a full symmetrization per transform.

The package's integer and real parameters go through two checks,
_check_int and _check_real, whose ValueError names the parameter and its value.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "FourierGrid",
    "ModelParams",
    "SpectralField",
    "VectorField",
    "make_grid",
    "hermitianize",
    "zero_field",
    "zero_vector_field",
    "smooth",
    "curl",
    "stream_velocity",
    "velocity_from_vorticity",
    "random_field",
]


@dataclass(frozen=True)
class FourierGrid:
    """Square collocation grid with integer wavenumbers in [-n/2, n/2).

    Attributes:
        n: number of modes (and collocation points) per axis, even, >= 4.
        k1, k2: integer wavenumber arrays of shape (n, n), FFT layout.
        k_sq: |k|^2 = k1^2 + k2^2.
        dealias: boolean 2/3-rule mask, symmetric under k -> -k.
    """

    n: int
    k1: np.ndarray
    k2: np.ndarray
    k_sq: np.ndarray
    dealias: np.ndarray
    _neg: np.ndarray  # index map k -> -k, both axes

    @property
    def cut(self) -> int:
        """K = (n-1)//3, the largest |k1|, |k2| the 2/3 rule keeps."""
        return (self.n - 1) // 3

    def spacing(self) -> float:
        """Collocation spacing 2*pi/n."""
        return 2.0 * np.pi / self.n


def _check_int(name: str, value, least: int | None = None) -> None:
    """ValueError naming name unless value is an integer (numpy integers too,
    bools not), and >= least if least is given."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (least is not None and value < least)):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def _check_real(name: str, value: float, zero_ok: bool = False) -> None:
    """ValueError naming name unless value is positive and finite, or finite
    and >= 0 if zero_ok; NaN fails."""
    if not (0 <= value < math.inf if zero_ok else 0 < value < math.inf):
        rule = "finite and >= 0" if zero_ok else "positive and finite"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


@lru_cache(maxsize=32, typed=True)  # typed: 64.0 == 64 must not find the grid of 64
def make_grid(n: int) -> FourierGrid:
    """Build (and cache) the grid for n modes per axis.

    Raises:
        ValueError: unless n is an even integer >= 4.
    """
    _check_int("n", n, 4)
    if n % 2 != 0:
        raise ValueError(f"grid size must be even, got {n}")
    k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    k_sq = (k1 * k1 + k2 * k2).astype(np.float64)
    cut = (n - 1) // 3  # 3*cut < n: no product of two retained modes aliases onto one
    dealias = (np.abs(k1) <= cut) & (np.abs(k2) <= cut)
    neg = (-np.arange(n)) % n
    for arr in (k1, k2, k_sq, dealias, neg):
        arr.setflags(write=False)
    return FourierGrid(n=n, k1=k1, k2=k2, k_sq=k_sq, dealias=dealias, _neg=neg)


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: filter length scale alpha and damping rate gamma.

    alpha is the square of the filter length; the velocity entering the
    transport term is (1 - alpha*Laplacian)^(-1) of the advected one.
    """

    alpha: float
    gamma: float

    def __post_init__(self) -> None:
        _check_real("alpha", self.alpha)
        _check_real("gamma", self.gamma)


@dataclass
class SpectralField:
    """Scalar field given by its Fourier coefficients (FFT layout)."""

    grid: FourierGrid
    coeffs: np.ndarray

    def to_samples(self) -> np.ndarray:
        """Values on the collocation grid (real part; imag is roundoff)."""
        return np.fft.ifft2(self.coeffs).real * self.grid.n**2

    def l2_norm_sq(self) -> float:
        """(2*pi)^2 * sum |fhat|^2."""
        c = self.coeffs
        return float((2.0 * np.pi) ** 2 * np.vdot(c, c).real)


@dataclass
class VectorField:
    """Two-component field; divergence-free ones satisfy k.uhat(k) = 0."""

    grid: FourierGrid
    coeffs: np.ndarray  # shape (2, n, n)

    def component(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[i])

    def l2_norm_sq(self) -> float:
        c = self.coeffs
        return float((2.0 * np.pi) ** 2 * np.vdot(c, c).real)


def hermitianize(grid: FourierGrid, coeffs: np.ndarray) -> np.ndarray:
    """Project onto coefficient arrays of real fields: c(-k) = conj(c(k)).

    The projection is exact by construction, so fields stay real under
    repeated transforms instead of accumulating imaginary drift.
    """
    neg = grid._neg
    flipped = coeffs[..., neg, :][..., :, neg]
    return 0.5 * (coeffs + np.conj(flipped))


def zero_field(grid: FourierGrid) -> SpectralField:
    return SpectralField(grid, np.zeros((grid.n, grid.n), dtype=complex))


def zero_vector_field(grid: FourierGrid) -> VectorField:
    return VectorField(grid, np.zeros((2, grid.n, grid.n), dtype=complex))


def smooth(f: SpectralField, alpha: float) -> SpectralField:
    """Apply the regularizing inverse (1 - alpha*Laplacian)^(-1).

    Multiplies each mode by 1/(1 + alpha*|k|^2); alpha = 0 is the identity.
    """
    _check_real("alpha", alpha, zero_ok=True)
    return SpectralField(f.grid, f.coeffs / (1.0 + alpha * f.grid.k_sq))


def curl(u: VectorField) -> SpectralField:
    """Scalar curl d1 u2 - d2 u1 of a plane vector field."""
    g = u.grid
    return SpectralField(g, 1j * g.k1 * u.coeffs[1] - 1j * g.k2 * u.coeffs[0])


@lru_cache(maxsize=16)
def _inverse_laplacian(n: int) -> np.ndarray:
    """Per-mode -1/|k|^2, with 0 at k = 0 (read-only, cached per grid size)."""
    k_sq = make_grid(n).k_sq
    inv_lap = np.zeros_like(k_sq)
    nz = k_sq > 0
    inv_lap[nz] = -1.0 / k_sq[nz]
    inv_lap.setflags(write=False)
    return inv_lap


def stream_velocity(omega: SpectralField) -> VectorField:
    """Velocity with the given scalar curl: perp-gradient of inv-Laplacian.

    The k = 0 mode of omega is ignored (and must be zero for consistency).
    """
    g = omega.grid
    psi = _inverse_laplacian(g.n) * omega.coeffs
    return VectorField(g, np.stack((-1j * g.k2 * psi, 1j * g.k1 * psi)))


def velocity_from_vorticity(omega: SpectralField, alpha: float) -> VectorField:
    """Regularized velocity whose unfiltered curl is omega.

    Returns ubar with curl((1 - alpha*Laplacian) ubar) = omega, i.e. the
    perp-gradient of (Laplacian - alpha*Laplacian^2)^(-1) omega.
    """
    return stream_velocity(smooth(omega, alpha))


def _half(coeffs: np.ndarray) -> np.ndarray:
    """The rfft2 half spectrum k2 = 0 .. n/2 of full-layout coefficients (a view)."""
    return coeffs[..., : coeffs.shape[-1] // 2 + 1]


@lru_cache(maxsize=16)
def _band_index(cut: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer k1, k2 of the band layout (2 cut + 1, cut + 1), rows
    k1 = 0 .. cut, -cut .. -1 and columns k2 = 0 .. cut, and the row map
    k1 -> -k1 (read-only, cached per cut)."""
    rows = 2 * cut + 1
    k1 = np.concatenate((np.arange(cut + 1), np.arange(-cut, 0)))
    k1, k2 = np.meshgrid(k1, np.arange(cut + 1), indexing="ij")
    neg = (-np.arange(rows)) % rows
    for arr in (k1, k2, neg):
        arr.setflags(write=False)
    return k1, k2, neg


@lru_cache(maxsize=16)
def _band_grad(cut: int) -> np.ndarray:
    """i*k1 and i*k2 on the band, k = 0 dropped (read-only, cached per cut)."""
    k1, k2, _ = _band_index(cut)
    grad = np.zeros((2,) + k1.shape, dtype=complex)
    grad.imag = np.stack((k1, k2))
    grad[:, 0, 0] = 0.0
    grad.setflags(write=False)
    return grad


def _band(grid: FourierGrid, coeffs: np.ndarray) -> np.ndarray:
    """The band (..., 2K+1, K+1) of half-spectrum or full-layout coefficients
    (a copy): both layouts agree on the columns k2 <= K."""
    n, cut = grid.n, grid.cut
    return np.concatenate((coeffs[..., : cut + 1, : cut + 1], coeffs[..., n - cut :, : cut + 1]), axis=-2)


def _unband(grid: FourierGrid, band: np.ndarray) -> np.ndarray:
    """Half spectra (..., n, n//2+1) of band coefficients, zero off the band."""
    n, cut = grid.n, grid.cut
    half = np.zeros(band.shape[:-2] + (n, n // 2 + 1), dtype=complex)
    half[..., : cut + 1, : cut + 1] = band[..., : cut + 1, :]
    half[..., n - cut :, : cut + 1] = band[..., cut + 1 :, :]
    return half


def _sample_scratch(grid: FourierGrid, f: int) -> np.ndarray:
    """The zeroed (f, n, n//2+1) half spectra that _samples and _spectrum
    share for up to f fields.  Both leave its columns k2 > K zero, so a
    call of either finds them zero."""
    n = grid.n
    return np.zeros((f, n, n // 2 + 1), dtype=complex)


def _samples(
    grid: FourierGrid,
    ops: np.ndarray,
    band: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """Collocation samples (f, n, n) of the real fields with band
    coefficients ops * band, into out: ops is (f, 2K+1, K+1), band one band
    or f.

    The two transforms irfft2 makes, on the band only: the products go
    straight into the two row blocks of the columns k2 <= K of scratch[:f],
    whose rows K < |k1| are zeroed, the ifft over axis -2 runs in place on
    those columns, and the irfft over axis -1 makes the samples from the
    whole half spectra.  scratch is a _sample_scratch for at least f
    fields.  The inputs are never written.
    """
    n, cut = grid.n, grid.cut
    cols = scratch[: len(ops), :, : cut + 1]
    np.multiply(ops[..., : cut + 1, :], band[..., : cut + 1, :], out=cols[:, : cut + 1])
    np.multiply(ops[..., cut + 1 :, :], band[..., cut + 1 :, :], out=cols[:, n - cut :])
    cols[:, cut + 1 : n - cut] = 0.0
    np.fft.ifft(cols, n, axis=-2, norm="forward", out=cols)
    return np.fft.irfft(scratch[: len(ops)], n, axis=-1, norm="forward", out=out)


def _spectrum(
    grid: FourierGrid,
    samples: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """Band of the spectra of de-aliased products, into out; its k = 0
    entry is zero and its k2 = 0 column, the only one rfft2 leaves inexactly
    Hermitian, is made exactly Hermitian.

    The two transforms rfft2 makes: rfft over axis -1 into scratch[:f],
    a _sample_scratch for at least f fields, then fft over -2 in place on
    the columns k2 <= K only, whose band rows are then copied out; the
    columns k2 > K are zeroed again for _samples.  Band values are rfft2's
    to the bit.
    """
    n, cut = grid.n, grid.cut
    c = np.fft.rfft(samples, n, axis=-1, norm="forward", out=scratch[: len(samples)])
    cols = c[..., : cut + 1]
    np.fft.fft(cols, n, axis=-2, norm="forward", out=cols)
    out[..., : cut + 1, :] = cols[..., : cut + 1, :]
    out[..., cut + 1 :, :] = cols[..., n - cut :, :]
    c[..., cut + 1 :] = 0.0
    out[..., 0, 0] = 0.0
    out[..., 0] = 0.5 * (out[..., 0] + np.conj(out[..., _band_index(cut)[2], 0]))
    return out


def _full(grid: FourierGrid, half: np.ndarray) -> np.ndarray:
    """Full-layout coefficients of real fields from their half spectra, exactly."""
    n = grid.n
    out = np.empty(half.shape[:-1] + (n,), dtype=complex)
    out[..., : n // 2 + 1] = half
    out[..., n // 2 + 1 :] = np.conj(half[..., grid._neg, 1 : n // 2][..., ::-1])
    return out


def random_field(
    grid: FourierGrid,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    band: int | None = None,
) -> SpectralField:
    """Random real zero-mean field supported on the de-aliased band.

    Coefficients are unit complex Gaussians scaled by amplitude/(1+|k|^2),
    hermitianized so the field is real; band, if given, keeps |k| <= band.
    amplitude must be finite and >= 0, band an integer >= 1.
    """
    _check_real("amplitude", amplitude, zero_ok=True)
    if band is not None:
        _check_int("band", band, 1)
    n = grid.n
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    c *= amplitude / (1.0 + grid.k_sq)
    mask = grid.dealias.copy()
    if band is not None:
        mask &= grid.k_sq <= band**2
    c = np.where(mask, c, 0.0)
    c = hermitianize(grid, c)
    c[0, 0] = 0.0
    return SpectralField(grid, c)
