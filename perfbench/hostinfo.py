"""What a run saw of its host: CPUs, versions and the BLAS thread settings."""
from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "EBA_THREADS")


def blas_env() -> dict:
    return {v: os.environ.get(v) for v in THREAD_VARIABLES}


def openblas_threads() -> int | None:
    """Pool size the OpenBLAS that numpy loaded runs with; None if it is not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*.so*"))
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": blas_env(),
        "openblas_threads": openblas_threads(),
    }
    try:
        import scipy
        env["scipy"] = scipy.__version__
    except ImportError:
        env["scipy"] = None
    return env
