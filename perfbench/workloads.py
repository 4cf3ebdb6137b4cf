"""The three workloads: inputs made from a seed, one round of work, checks.

A workload object is built by its set-up (imports, grid, multiplier tables,
initial state), then runs rounds.  A round is a list of chunks, each a
callable taking the tracer (None when untraced); the runner times each
chunk.  Checks run after each round, outside the timed phase, against
`checks`.
"""
from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np

from bardina import bounds, dynamics, instability, spectral
from bardina import io as ckpt

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# forced Kolmogorov flow shared by the two dynamics workloads
N, S, AMPLITUDE, ALPHA, GAMMA = 128, 8, 15.0, 1.0 / 64.0, 1.0


def _flow():
    grid = spectral.make_grid(N)
    params = spectral.ModelParams(alpha=ALPHA, gamma=GAMMA)
    spec = instability.KolmogorovSpec(s=S, amplitude=AMPLITUDE, gamma=GAMMA)
    return grid, params, spec, instability.kolmogorov_forcing(spec, grid)


def _own_energy(coeffs: np.ndarray) -> float:
    k1, k2 = checks.wavenumbers(coeffs.shape[0])
    return checks.TWO_PI_SQ * float(np.sum(np.abs(coeffs) ** 2 / (1.0 + ALPHA * (k1 * k1 + k2 * k2))))


class Simulate:
    """Start outside the absorbing ball; simulate in legs, checkpointing each leg."""

    name = "simulate_128"
    LEGS, STEPS, DT_MAX, BAND, START_ENERGY = 4, 50, 1e-3, 12, 1.2

    def __init__(self, seed: int, rundir: str) -> None:
        grid, params, _, g = _flow()
        self.r0_sq = checks.absorbing_radius_sq(S, AMPLITUDE, ALPHA)
        raw = spectral.random_field(grid, np.random.Generator(np.random.Philox(seed)),
                                    amplitude=1.0, band=self.BAND)
        scale = math.sqrt(self.START_ENERGY * self.r0_sq / _own_energy(raw.coeffs))
        self.initial = dynamics.make_state(spectral.SpectralField(grid, scale * raw.coeffs),
                                           params, forcing=g)
        # CFL number at most 0.9; dt = DT_MAX for every seed tried
        self.dt = min(self.DT_MAX,
                      0.9 * grid.spacing() / checks.max_speed(self.initial.omega.coeffs, ALPHA))
        dynamics.vorticity_rhs(self.initial)  # builds the multiplier tables
        self.paths = [os.path.join(rundir, f"leg{i}.ebv") for i in range(self.LEGS)]
        self.own_curl = checks.kolmogorov_curl(N, S, AMPLITUDE, GAMMA)

    def chunks(self):
        self.budget = checks.EnergyBudget(N, ALPHA, GAMMA, self.own_curl)
        self.state, self.rows, self.pairs = self.initial, [], []
        return [functools.partial(self._leg, path) for path in self.paths]

    def _leg(self, path: str, tracer) -> None:
        state, rows = dynamics.simulate(self.state, self.state.time + self.STEPS * self.dt,
                                        self.dt, observe_every=1, observers=(self.budget,))
        ckpt.save_state(state, path)
        self.state = ckpt.load_state(path)
        self.rows += rows
        self.pairs.append((state, self.state))

    def check_once(self) -> list[str]:
        return []

    def check_round(self) -> list[str]:
        b = self.budget
        out = checks.check_energy_budget(b.times, b.energy, b.rate)
        for mem, loaded in self.pairs:
            out += checks.check_checkpoint(mem, loaded)
        out += checks.check_ball_entry(b.energy[0], b.energy[-1], self.r0_sq)
        if len(b.times) != self.LEGS * self.STEPS + 1:
            out.append(f"observer saw {len(b.times)} states, expected {self.LEGS * self.STEPS + 1}")
        own = dict(zip(b.times, b.energy))
        for row in self.rows:
            e = own.get(row.time)
            if e is None or abs(self.r0_sq - e - row.r0_margin) > 1e-9 * self.r0_sq:
                out.append(f"diagnostic row at t = {row.time!r}: r0_margin {row.r0_margin!r} "
                           f"!= R0^2 - E = {None if e is None else self.r0_sq - e!r}")
                break
        if not all(np.isfinite(m.omega.coeffs).all() for m, _ in self.pairs):
            out.append("non-finite vorticity coefficients")
        return out

    def counters(self) -> dict:
        size = sum(os.path.getsize(p) + os.path.getsize(p + ".forcing") for p in self.paths)
        return {"io.bytes": 2 * size}  # each checkpoint is written and read once


class Lyapunov:
    """Benettin spectrum of the perturbed unstable shear, settings of criterion 8, short windows."""

    name = "lyapunov_128"
    EXPONENTS, DT, RENORM, T_TRANSIENT, T_AVERAGE, BLOCKS = 4, 0.0125, 10, 0.125, 0.25, 2

    def __init__(self, seed: int, rundir: str) -> None:
        grid, self.params, self.spec, g = _flow()
        self.seed = seed
        noise = spectral.random_field(grid, np.random.Generator(np.random.Philox(seed)),
                                      amplitude=0.5, band=12)
        omega = instability.stationary_vorticity(self.spec, grid).coeffs + noise.coeffs
        self.initial = dynamics.make_state(spectral.SpectralField(grid, omega), self.params,
                                           forcing=g)
        dynamics.vorticity_rhs(self.initial)

    def chunks(self):
        return [self._spectrum]

    def _spectrum(self, tracer) -> None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.report = dynamics.lyapunov_spectrum(
                self.initial, n=self.EXPONENTS, dt=self.DT, renorm_every=self.RENORM,
                t_transient=self.T_TRANSIENT, t_average=self.T_AVERAGE, seed=self.seed,
                blocks=self.BLOCKS)
        self.collapses = sum("collapsed" in str(w.message) for w in caught)

    def check_once(self) -> list[str]:
        """One step_with_tangents against central differences of step, in vorticity."""
        grid, st = self.initial.grid, self.initial
        k1, k2 = checks.wavenumbers(N)
        vecs = dynamics.make_tangents(grid, self.EXPONENTS, ALPHA,
                                      np.random.Generator(np.random.Philox(self.seed)))
        moved = dynamics.step_with_tangents(dynamics.TangentBundle(st, vecs), self.DT)
        out = []
        for before, after in zip(vecs, moved.vectors):
            dw = 1j * k1 * before.coeffs[1] - 1j * k2 * before.coeffs[0]
            ends = [
                dynamics.step(dynamics.make_state(
                    spectral.SpectralField(grid, st.omega.coeffs + e * dw), st.params,
                    forcing_curl=st.forcing_curl, time=st.time), self.DT).omega.coeffs
                for e in (checks.FD_EPS, -checks.FD_EPS)
            ]
            fd = (ends[0] - ends[1]) / (2.0 * checks.FD_EPS)
            out += checks.check_tangent_fd(fd, 1j * k1 * after.coeffs[1] - 1j * k2 * after.coeffs[0])
        return out

    def check_round(self) -> list[str]:
        rep = self.report
        n = np.arange(1, self.EXPONENTS + 1)
        curl_norm = math.sqrt(self.spec.curl_norm_sq)
        return checks.check_lyapunov(
            rep.exponents, rep.partial_sums, rep.lyapunov_dimension,
            bounds.trace_bound_q(n, ALPHA, GAMMA, curl_norm),
            bounds.upper_bound(ALPHA, GAMMA, self.spec.curl_norm_sq), self.collapses)

    def counters(self) -> dict:
        return {"dynamics.collapses": self.collapses}


class Ladders:
    """Chain solver at s = 96, the instability CLI at s = 24, and cold bounds over alpha."""

    name = "ladders_s96"
    S_COUNT, S_CLI, DELTA = 96, 24, "0.35"
    BOUNDS_K = range(6, 13)

    def __init__(self, seed: int, rundir: str) -> None:
        # gamma = 2^k scales every eigenvalue exactly, so the work is the same for all seeds
        self.gamma = 2.0 ** (seed % 3 - 1)
        self.rundir = rundir
        self.inst_csv = os.path.join(rundir, "instability.csv")
        self.bounds_json = [os.path.join(rundir, f"bounds_{k}.json") for k in self.BOUNDS_K]
        self.notes: dict[str, str] = {}

    def chunks(self):
        return [self._count, self._instability_cli, self._bounds_cli]

    def _count(self, tracer) -> None:
        self.count = instability.unstable_count(self.S_COUNT, float(self.DELTA),
                                                1.0 / self.S_COUNT**2, self.gamma)

    def _cli(self, tracer, label: str, calls: list[list[str]]) -> None:
        """Run bardina subcommands in one fresh process, as the console script would."""
        spans_path = os.path.join(self.rundir, f"spans_{label}.json") if tracer else "-"
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), spans_path, json.dumps(calls)]
        span = tracer.open(f"process.{label}") if tracer else None
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        finally:
            if tracer:
                tracer.close(span)
        if done.returncode != 0:
            raise RuntimeError(f"bardina {label} exited {done.returncode}: {done.stderr.strip()}")
        self.notes[label] = done.stderr.strip().splitlines()[-1]
        if tracer:
            with open(spans_path, encoding="utf-8") as fh:
                tracer.adopt(json.load(fh), span)

    def _instability_cli(self, tracer) -> None:
        self._cli(tracer, "instability", [[
            "instability", "--alpha", repr(1.0 / self.S_CLI**2), "--gamma", repr(self.gamma),
            "--s", str(self.S_CLI), "--delta", self.DELTA, "--threads", "1",
            "--output", self.inst_csv]])

    def _bounds_cli(self, tracer) -> None:
        self._cli(tracer, "bounds", [
            ["bounds", "--alpha", repr(2.0**-k), "--gamma", repr(self.gamma), "--output", path]
            for k, path in zip(self.BOUNDS_K, self.bounds_json)])

    def check_once(self) -> list[str]:
        self.c1_own, self.delta_own = checks.lower_bound_constant()
        return []

    def check_round(self) -> list[str]:
        out = checks.check_count(self.count, self.S_COUNT, self.DELTA)
        with open(self.inst_csv, encoding="utf-8") as fh:
            rows = checks.read_csv(fh.read())
        out += checks.check_instability_rows(rows, self.S_CLI, self.DELTA,
                                             1.0 / self.S_CLI**2, self.gamma)
        records = []
        for path in self.bounds_json:
            with open(path, encoding="utf-8") as fh:
                records.append(json.loads("".join(ln for ln in fh if not ln.startswith("#"))))
        return out + checks.check_bounds(records, self.c1_own, self.delta_own)

    def counters(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (Simulate, Lyapunov, Ladders)}
