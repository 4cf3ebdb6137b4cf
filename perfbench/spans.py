"""Span tracing of bardina from outside the package.

`Tracer.install()` replaces every public function of every bardina module,
wherever a module namespace holds a reference to it, with a wrapper that
records a span (name, parent, start, end).  `SimState.__post_init__` is
wrapped too, so state validation shows as its own span.  The numpy.fft and
scipy.fft transform entry points are wrapped as the FFT layer, so its
counts do not depend on which backend the program calls.  Spans stay in
memory; `uninstall()` restores every original object.

All times come from time.perf_counter, which on Linux is CLOCK_MONOTONIC and
therefore comparable between a parent and the child processes it starts.
"""
from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

BARDINA_MODULES = ("spectral", "dynamics", "instability", "bounds", "io", "cli", "inequalities")
FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)
# span record fields
NAME, PARENT, START, END, POINTS, ERROR = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        """Start a span; returns its index, which `close` and `adopt` take."""
        self._stack.append(len(self.spans))
        self.spans.append([name, self._stack[-2] if len(self._stack) > 1 else -1,
                           time.perf_counter(), 0.0, 0, False])
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, fft: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.spans[index][ERROR] = True
                raise
            finally:
                tracer.close(index)
            if fft:
                # points transformed: the real-side length for r2c/c2r
                tracer.spans[index][POINTS] = max(np.size(args[0]) if args else 0, np.size(out))
            return out

        return traced

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under span `parent`."""
        base = len(self.spans)
        for rec in child_spans:
            rec = list(rec)
            rec[PARENT] = parent if rec[PARENT] < 0 else rec[PARENT] + base
            self.spans.append(rec)

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"bardina.{m}") for m in BARDINA_MODULES}
        wrapped: dict[int, object] = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                origin = getattr(obj, "__module__", None) or ""
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or not origin.startswith("bardina.")
                ):
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self.wrap(f"{origin.split('.')[-1]}.{obj.__name__}", obj)
                self._patch(mod, attr, wrapped[id(obj)])
        state_cls = modules["dynamics"].SimState
        self._patch(state_cls, "__post_init__",
                    self.wrap("dynamics.SimState.__post_init__", state_cls.__post_init__))
        fft_modules = [("numpy", np.fft)]
        try:
            import scipy.fft
            fft_modules.append(("scipy", scipy.fft))
        except ImportError:
            pass
        for label, mod in fft_modules:
            for attr in FFT_NAMES:
                if hasattr(mod, attr):
                    self._patch(mod, attr, self.wrap(f"fft.{label}.{attr}", getattr(mod, attr), fft=True))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def layer_of(name: str) -> str:
    """Layer (module) a span belongs to; FFT transforms are the spectral layer."""
    head = name.split(".", 1)[0]
    return "spectral" if head == "fft" else head


def _children(spans: list[list]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            kids[rec[PARENT]].append(i)
    return kids


def _within(spans: list[list], i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans: list[list], wall: float) -> tuple[dict, dict]:
    """Per-layer metrics and self-time share of each layer for one traced round."""
    kids = _children(spans)
    dur = [rec[END] - rec[START] for rec in spans]

    def total(name: str) -> float:
        return sum(d for rec, d in zip(spans, dur) if rec[NAME] == name)

    def count(name: str) -> int:
        return sum(1 for rec in spans if rec[NAME] == name)

    def self_time(name: str, children: tuple[str, ...] | None = None) -> float:
        """Duration of `name` spans minus their child spans (only `children`, if given)."""
        out = 0.0
        for i, rec in enumerate(spans):
            if rec[NAME] == name:
                out += dur[i] - sum(
                    dur[j] for j in kids[i] if children is None or spans[j][NAME] in children
                )
        return out

    fft = [i for i, rec in enumerate(spans) if rec[NAME].startswith("fft.")]
    steps = count("dynamics.step")
    tsteps = count("dynamics.step_with_tangents")
    chains = count("instability.solve_sigma")
    cf = count("instability.continued_fraction_g")
    io_write = io_read = 0.0
    for i, rec in enumerate(spans):
        if layer_of(rec[NAME]) != "io" or (rec[PARENT] >= 0 and layer_of(spans[rec[PARENT]][NAME]) == "io"):
            continue
        short = rec[NAME].split(".", 1)[1]
        if short.startswith(("save", "write")):
            io_write += dur[i]
        elif short.startswith(("load", "read")):
            io_read += dur[i]
    metrics = {
        "spectral.fft_calls": len(fft),
        "spectral.fft_points": sum(spans[i][POINTS] for i in fft),
        "spectral.fft_s": sum(dur[i] for i in fft),
        "dynamics.step_calls": steps,
        "dynamics.step_s": total("dynamics.step"),
        "dynamics.fft_per_step": (
            sum(1 for i in fft if _within(spans, i, "dynamics.step")) / steps if steps else 0.0
        ),
        "dynamics.simulate_self_s": self_time("dynamics.simulate", ("dynamics.step",)),
        "dynamics.state_check_s": total("dynamics.SimState.__post_init__"),
        "dynamics.tangent_step_calls": tsteps,
        "dynamics.tangent_step_s": total("dynamics.step_with_tangents"),
        "dynamics.fft_per_tangent_step": (
            sum(1 for i in fft if _within(spans, i, "dynamics.step_with_tangents")) / tsteps
            if tsteps else 0.0
        ),
        "dynamics.renorm_s": self_time(
            "dynamics.lyapunov_spectrum", ("dynamics.step_with_tangents", "dynamics.make_tangents")
        ),
        "instability.solve_sigma_calls": chains,
        "instability.solve_sigma_s": total("instability.solve_sigma"),
        "instability.cf_evals": cf,
        "instability.cf_evals_per_chain": cf / chains if chains else 0.0,
        "instability.cf_retries": sum(
            1 for rec in spans if rec[NAME] == "instability.continued_fraction_g" and rec[ERROR]
        ),
        "instability.oracle_calls": count("instability.chain_matrix_eigen"),
        "instability.oracle_s": total("instability.chain_matrix_eigen"),
        "bounds.lower_bound_constant_s": total("bounds.lower_bound_constant"),
        "bounds.area_a_calls": count("bounds.area_a"),
        "io.write_s": io_write,
        "io.read_s": io_read,
        "cli.self_s": self_time("cli.parse_and_dispatch"),
    }
    shares: dict[str, float] = {}
    for i, rec in enumerate(spans):
        own = dur[i] - sum(dur[j] for j in kids[i])
        layer = layer_of(rec[NAME])
        shares[layer] = shares.get(layer, 0.0) + own / wall
    metrics["trace.coverage"] = sum(dur[i] for i, rec in enumerate(spans) if rec[PARENT] < 0) / wall
    return metrics, shares
