"""Fixed numpy reference kernel for machine-normalized time.

The host this benchmark runs on changes speed from minute to minute, and
raw wall time follows it.  The kernel below does a fixed amount of the
three kinds of work the workloads do (FFTs at 128^2, elementwise complex
array arithmetic, and a scalar Python loop with numpy scalar calls, the
way the chain solver spends its time), about 20 ms a pass.  The runner
interrupts the workload every 0.5 s to run one pass, so the kernel sees the
CPU the workload is on; wall time divided by the kernel time beside it
follows the host's speed less than either.  Never change it: its figures
are only comparable with runs of the same kernel.  It shares no code with
bardina.
"""
from __future__ import annotations

import time

import numpy as np

# A pass on the reference host in its fast state.  A time t measured beside a
# pass time k is t * REFERENCE_PASS_S / k in reference seconds.
REFERENCE_PASS_S = 0.020


class ReferenceKernel:
    """Inputs are made once from a fixed seed; each call times one pass."""

    N = 128
    FFT_PAIRS = 6
    ARRAY_OPS = 60
    SCALAR_ITERS = 1700

    def __init__(self) -> None:
        rng = np.random.default_rng(20201101)
        shape = (self.N, self.N)
        self.a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.w = 1.0 / (1.0 + rng.random(shape))
        self.parts: list[tuple[float, float, float]] = []

    def run(self) -> float:
        """Seconds taken by one pass; the result is consumed inside the timing.

        The time of each of the three parts is kept in `parts`.
        """
        a, b, w = self.a, self.b, self.w
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(self.FFT_PAIRS):
            x = np.fft.ifft2(a * w)
            acc += float(np.fft.fft2(x.real * x.imag)[1, 1].real)
        t1 = time.perf_counter()
        c = a
        for _ in range(self.ARRAY_OPS):
            c = np.where(w > 0.75, c * w, b) + 0.5 * (c - b)
            acc += float(np.abs(c[3, 5]))
        t2 = time.perf_counter()
        s = 1.0
        for i in range(self.SCALAR_ITERS, 0, -1):
            d = float(np.asarray(i, dtype=np.float64) * 1.25 + 0.5)
            s = d + 1.0 / s
        acc += s
        t3 = time.perf_counter()
        if not np.isfinite(acc):
            raise ArithmeticError("reference kernel produced a non-finite value")
        self.parts.append((t1 - t0, t2 - t1, t3 - t2))
        return t3 - t0
