"""Benchmark of bardina's three reproduction paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # all workloads, one result line each
    python3 perfbench/run.py --layer-table    # reference layer timings (not gated)

With --trace 0 a run measures set-up in fresh processes, then runs whole
rounds of the workload for S seconds, with the reference kernel run on a
timer inside the timed chunks, checks every round, and prints the
end-to-end metrics.  With
--trace 1 it alternates untraced and traced rounds and prints the per-layer
metrics.  The last line of standard output is one JSON object; the exit
code is 1 if a check failed and 2 if the program cannot be run at all.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

import hostinfo

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("simulate_128", "lyapunov_128", "ladders_s96")
SETUP_PROBES = 6

END_TO_END = {"setup_s": "s", "wall_norm": "ratio", "cpu_per_wall": "ratio",
              "peak_rss_mb": "MB"}
# printed and kept in result.json, not gated: raw times follow the host's speed
RAW = {"setup_wall_s": "s", "wall_s": "s", "cpu_s": "s"}
PER_LAYER = {
    "spectral.fft_calls": "count", "spectral.fft_points": "count", "spectral.fft_s": "s",
    "dynamics.step_calls": "count", "dynamics.step_s": "s", "dynamics.fft_per_step": "count",
    "dynamics.simulate_self_s": "s", "dynamics.state_check_s": "s",
    "dynamics.tangent_step_calls": "count", "dynamics.tangent_step_s": "s",
    "dynamics.fft_per_tangent_step": "count", "dynamics.renorm_s": "s",
    "dynamics.collapses": "count",
    "instability.solve_sigma_calls": "count", "instability.solve_sigma_s": "s",
    "instability.cf_evals": "count", "instability.cf_evals_per_chain": "count",
    "instability.cf_retries": "count", "instability.oracle_calls": "count",
    "instability.oracle_s": "s",
    "bounds.lower_bound_constant_s": "s", "bounds.area_a_calls": "count",
    "io.write_s": "s", "io.read_s": "s", "io.bytes": "B",
    "cli.self_s": "s", "trace.overhead_s": "s", "trace.coverage": "ratio",
}


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def setup_time(name: str, seed: int) -> tuple[float, float]:
    """Process start to ready in a fresh process doing this run's set-up, and the
    reference kernel's pass time measured in that process right after."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, os.path.abspath(__file__), "--setup-probe",
                           "--workload", name, "--seed", str(seed)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {name} failed")
    return ready - t0, float(rest)


class KernelSampler:
    """Runs the reference kernel on a timer signal every INTERVAL seconds of a timed chunk.

    The signal handler runs in the main thread between bytecodes (or once a
    numpy call returns), so the kernel sees the CPU the workload is on, at
    moments spread over the whole chunk.  The time it takes is kept apart
    and subtracted from the chunk.
    """

    INTERVAL = 0.5

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.samples: list[float] = []
        self.paused_wall = self.paused_cpu = 0.0

    def _tick(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(self.kernel.run())
        self.paused_cpu += time.process_time() - c0
        self.paused_wall += time.perf_counter() - t0

    def __enter__(self) -> "KernelSampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)


def run_round(workload, sampler, tracer) -> dict:
    """One round: chunks timed one by one, minus the kernel passes the sampler ran in them."""
    first = len(sampler.samples) if sampler else 0
    wall = cpu = 0.0
    for chunk in workload.chunks():
        pw, pc = (sampler.paused_wall, sampler.paused_cpu) if sampler else (0.0, 0.0)
        c0, t0 = _cpu(), time.perf_counter()
        if sampler:
            with sampler:
                chunk(tracer)
        else:
            chunk(tracer)
        t1, c1 = time.perf_counter(), _cpu()
        if sampler:
            pw, pc = sampler.paused_wall - pw, sampler.paused_cpu - pc
        wall += t1 - t0 - pw
        cpu += c1 - c0 - pc
    rec = {"wall_s": wall, "cpu_s": cpu}
    if sampler:
        if len(sampler.samples) == first:  # a round shorter than the interval
            sampler.samples.append(sampler.kernel.run())
        rec["kernel_s"] = statistics.fmean(sampler.samples[first:])
    return rec


def measure(name: str, seed: int, seconds: float, traced: bool, rundir: str) -> dict:
    from kernel import REFERENCE_PASS_S, ReferenceKernel
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    setup: list[tuple[float, float]] = []
    workload = WORKLOADS[name](seed, rundir)
    failures = workload.check_once()
    sampler = None if traced else KernelSampler(ReferenceKernel())
    if sampler:
        sampler.kernel.run()
    rounds, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        # set-up probes are spread over the run, one before each round, so
        # that they see the host's speed over the run like the rounds do
        if not traced and len(setup) < SETUP_PROBES:
            setup.append(setup_time(name, seed))
        attempted += 1
        tracer = Tracer() if traced and attempted % 2 == 0 else None
        try:
            if tracer:
                tracer.install()
            try:
                rec = run_round(workload, sampler, tracer)
            finally:
                if tracer:
                    tracer.uninstall()
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc()
            failed += 1
        else:
            rec["failures"] = workload.check_round()
            rec.update(workload.counters())
            if tracer:
                rec["layers"], rec["shares"] = layer_metrics(tracer.spans, rec["wall_s"])
                rec["spans"] = tracer.spans
            rounds.append(rec)
        done = time.perf_counter() - start >= seconds
        if done and (not traced or attempted >= 2):
            break
    while not traced and len(setup) < SETUP_PROBES:
        setup.append(setup_time(name, seed))
    for rec in rounds:
        failures += rec.pop("failures")
    result = {"correct": not failures and bool(rounds), "attempted": attempted,
              "failed": failed, "failures": failures, "rounds": rounds,
              "notes": getattr(workload, "notes", {})}
    if not rounds:
        return result
    if traced:
        plain = [r["wall_s"] for r in rounds if "layers" not in r]
        with_spans = [r for r in rounds if "layers" in r]
        if not plain or not with_spans:
            result["correct"] = False
            return result
        layers = {m: statistics.median(r["layers"][m] for r in with_spans)
                  for m in with_spans[0]["layers"]}
        for counter in ("dynamics.collapses", "io.bytes"):
            layers[counter] = statistics.median(r.get(counter, 0) for r in with_spans)
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in with_spans)
                                      - statistics.median(plain))
        result["metrics"] = {m: {"value": layers[m], "unit": u} for m, u in PER_LAYER.items()}
        result["shares"] = {k: statistics.median(r["shares"].get(k, 0.0) for r in with_spans)
                            for k in sorted({k for r in with_spans for k in r["shares"]})}
    else:
        usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        values = {
            "setup_s": statistics.median(w * REFERENCE_PASS_S / k for w, k in setup),
            "wall_norm": statistics.median(r["wall_s"] / r["kernel_s"] for r in rounds),
            "cpu_per_wall": statistics.median(r["cpu_s"] / r["wall_s"] for r in rounds),
            "peak_rss_mb": usage / 1024.0,
            "setup_wall_s": statistics.median(w for w, _ in setup),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        }
        result["metrics"] = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
        result["raw"] = {m: {"value": values[m], "unit": u} for m, u in RAW.items()}
        result["setup_samples"] = setup
        result["kernel_samples"] = sampler.samples
        result["kernel_parts"] = sampler.kernel.parts
    return result


def run_one(args) -> int:
    rundir = os.path.join(HERE, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    env = hostinfo.environment()
    print("# env: " + json.dumps(env, sort_keys=True), flush=True)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), rundir)
    spans = [r.pop("spans") for r in result["rounds"] if "spans" in r]
    if spans:
        with open(os.path.join(rundir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    with open(os.path.join(rundir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, env=env), fh, indent=1)
    for name in os.listdir(rundir):
        if ".ebv" in name:
            os.remove(os.path.join(rundir, name))
    for label, note in result["notes"].items():
        print(f"# {label} subcommand: {note.lstrip('# ')}")
    for msg in result["failures"]:
        print(f"# CHECK FAILED: {msg}", flush=True)
    if "shares" in result:
        print("# layer shares of traced wall time: " + json.dumps(result["shares"]))
    if "metrics" not in result:
        print(f"# {args.workload}: no round completed", file=sys.stderr)
        return 1
    for m, v in result["metrics"].items():
        print(f"# {args.workload} {m} = {v['value']!r} {v['unit']}")
    for m, v in result.get("raw", {}).items():
        print(f"# {args.workload} {m} = {v['value']!r} {v['unit']} (raw, not gated)")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; one combined line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name}: no result (exit {done.returncode})", file=sys.stderr)
            return 2
        combined["correct"] &= res["correct"] and done.returncode == 0
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for m, v in res["metrics"].items():
            combined["metrics"][f"{name}.{m}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layer-table", action="store_true",
                        help="print reference timings of single functions and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "bardina", "__init__.py")):
        print(f"perfbench: no bardina sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.layer_table:
        import layer_table
        return layer_table.main()
    if args.setup_probe:
        from workloads import WORKLOADS
        WORKLOADS[args.workload](args.seed, os.path.join(HERE, "runs"))
        print("ready", flush=True)
        from kernel import ReferenceKernel
        kernel = ReferenceKernel()
        kernel.run()
        print(statistics.median(kernel.run() for _ in range(5)), flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
