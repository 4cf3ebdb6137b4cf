"""Binary checkpoint files.

Format EBV1, all little-endian: the magic bytes "EBV1", u32 grid size n,
f64 alpha, f64 gamma, f64 time, then the n*n coefficients as (re, im) f64
pairs, row-major, with both wavenumber axes stored in the shifted order
-n/2 .. n/2-1.  One file holds one scalar field.  A simulation state is two
files: the vorticity at the given path and curl of the forcing next to it
with the suffix ".forcing".

Every file is written by `write_atomic`: to a temporary file in the same
directory, synced and renamed over the target, so a reader sees the old
file or the new one, never a torn one.  The command line writes its
--output files through it too.
"""
from __future__ import annotations

import os
import struct
from typing import TYPE_CHECKING

import numpy as np

from .spectral import ModelParams, SpectralField, make_grid

if TYPE_CHECKING:
    from .dynamics import SimState

__all__ = [
    "load_state",
    "read_scalar",
    "save_state",
    "write_atomic",
    "write_scalar",
]

MAGIC = b"EBV1"
_HEADER = struct.Struct("<4sIddd")


def _naming(exc: OSError, path: str) -> OSError:
    # an error the OS reports on the temporary file, or on no file (a failed
    # write or fsync), is reported on its target
    return OSError(exc.errno, exc.strerror, path) if exc.errno is not None else exc


def write_atomic(path: str, *chunks: bytes) -> None:
    """Write the chunks to path whole: to a temporary file next to it, synced and
    renamed over path.  A write that fails leaves the old file, if any, and no
    temporary file; the error names path."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        raise _naming(exc, path) from None
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        os.remove(tmp)
        if isinstance(exc, OSError):
            raise _naming(exc, path) from None
        raise


def write_scalar(path: str, field: SpectralField, params: ModelParams, time: float) -> None:
    header = _HEADER.pack(MAGIC, field.grid.n, params.alpha, params.gamma, time)
    write_atomic(path, header, np.fft.fftshift(field.coeffs).astype("<c16").tobytes())


def read_scalar(path: str) -> tuple[SpectralField, ModelParams, float]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: truncated checkpoint header")
    magic, n, alpha, gamma, time = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, not an EBV1 checkpoint")
    if n < 4 or n % 2 != 0:
        raise ValueError(f"{path}: invalid grid size {n}")
    expect = _HEADER.size + 16 * n * n
    if len(blob) != expect:
        raise ValueError(f"{path}: expected {expect} bytes for a scalar field, got {len(blob)}")
    raw = np.frombuffer(blob, dtype="<c16", offset=_HEADER.size).reshape(n, n)
    coeffs = np.fft.ifftshift(raw.astype(np.complex128))
    return SpectralField(make_grid(n), coeffs), ModelParams(alpha=alpha, gamma=gamma), time


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
    from .dynamics import SimState

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
