"""Binary checkpoint files.

Format EBV1, all little-endian: the magic bytes "EBV1", u32 grid size n,
f64 alpha, f64 gamma, f64 time, then the n*n coefficients as (re, im) f64
pairs, row-major, with both wavenumber axes stored in the shifted order
-n/2 .. n/2-1.  Scalar fields are one file; a vector field carries a u8
component count right after the header, followed by the components in
order.  A simulation state is two scalar files: the vorticity at the given
path and curl of the forcing next to it with the suffix ".forcing".

Every file is written to a temporary file in the same directory, synced and
renamed over the target, so a reader sees the old file or the new one,
never a torn one.
"""
from __future__ import annotations

import os
import secrets
import struct

import numpy as np

from .dynamics import SimState
from .spectral import ModelParams, SpectralField, VectorField, make_grid

__all__ = [
    "load_state",
    "read_scalar",
    "read_vector",
    "save_state",
    "write_scalar",
    "write_vector",
]

MAGIC = b"EBV1"
_HEADER = struct.Struct("<4sIddd")


def _shifted(coeffs: np.ndarray) -> np.ndarray:
    return np.fft.fftshift(coeffs, axes=(-2, -1)).astype("<c16")


def _unshifted(raw: np.ndarray) -> np.ndarray:
    return np.fft.ifftshift(raw.astype(np.complex128), axes=(-2, -1))


def _write_atomic(path: str, *chunks: bytes) -> None:
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_scalar(path: str, field: SpectralField, params: ModelParams, time: float) -> None:
    header = _HEADER.pack(MAGIC, field.grid.n, params.alpha, params.gamma, time)
    _write_atomic(path, header, _shifted(field.coeffs).tobytes())


def write_vector(path: str, field: VectorField, params: ModelParams, time: float) -> None:
    header = _HEADER.pack(MAGIC, field.grid.n, params.alpha, params.gamma, time)
    count = struct.pack("<B", field.coeffs.shape[0])
    _write_atomic(path, header, count, _shifted(field.coeffs).tobytes())


def _read_header(path: str, blob: bytes) -> tuple[int, ModelParams, float]:
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: truncated checkpoint header")
    magic, n, alpha, gamma, time = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, not an EBV1 checkpoint")
    if n < 4 or n % 2 != 0:
        raise ValueError(f"{path}: invalid grid size {n}")
    return n, ModelParams(alpha=alpha, gamma=gamma), time


def read_scalar(path: str) -> tuple[SpectralField, ModelParams, float]:
    with open(path, "rb") as fh:
        blob = fh.read()
    n, params, time = _read_header(path, blob)
    expect = _HEADER.size + 16 * n * n
    if len(blob) != expect:
        raise ValueError(f"{path}: expected {expect} bytes for a scalar field, got {len(blob)}")
    raw = np.frombuffer(blob, dtype="<c16", offset=_HEADER.size).reshape(n, n)
    return SpectralField(make_grid(n), _unshifted(raw)), params, time


def read_vector(path: str) -> tuple[VectorField, ModelParams, float]:
    with open(path, "rb") as fh:
        blob = fh.read()
    n, params, time = _read_header(path, blob)
    if len(blob) < _HEADER.size + 1:
        raise ValueError(f"{path}: truncated vector checkpoint")
    (ncomp,) = struct.unpack_from("<B", blob, _HEADER.size)
    expect = _HEADER.size + 1 + 16 * ncomp * n * n
    if ncomp == 0 or len(blob) != expect:
        raise ValueError(f"{path}: expected {expect} bytes for {ncomp} components, got {len(blob)}")
    raw = np.frombuffer(blob, dtype="<c16", offset=_HEADER.size + 1).reshape(ncomp, n, n)
    return VectorField(make_grid(n), _unshifted(raw)), params, time


def save_state(state: SimState, path: str) -> None:
    """Write a SimState as two scalar files: path and path + ".forcing".

    The forcing file goes first, so the vorticity file never exists
    without a forcing file next to it.
    """
    write_scalar(path + ".forcing", state.forcing_curl, state.params, state.time)
    write_scalar(path, state.omega, state.params, state.time)


def load_state(path: str) -> SimState:
    """Read the SimState that save_state wrote to path.

    Both files must carry the same grid, parameters and time.  save_state
    writes one time into both headers, so a pair whose times differ is the
    trace of a save that failed between its two writes: the forcing of one
    state next to the vorticity of another.  It is rejected, not loaded.
    """
    omega, params, time = read_scalar(path)
    fpath = path + ".forcing"
    if not os.path.exists(fpath):
        raise FileNotFoundError(f"{fpath}: forcing file of the checkpoint is missing")
    fc, fparams, ftime = read_scalar(fpath)
    if fparams != params or fc.grid.n != omega.grid.n:
        raise ValueError(f"{fpath}: forcing file disagrees with {path} on grid or parameters")
    state = SimState(omega, time, params, fc)
    if ftime != time:
        raise ValueError(
            f"{fpath} is from time {ftime!r} but {path} from time {time!r}: "
            "not one checkpoint (a save failed between the two files?)"
        )
    return state
