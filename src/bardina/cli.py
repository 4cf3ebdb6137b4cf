"""Command-line front end.

One dispatcher, five subcommands:

    simulate     integrate the vorticity equation, emit observer CSV
    lyapunov     Benettin exponent estimation, emit exponent CSV
    instability  per-chain growth rates for a Kolmogorov forcing, CSV
    bounds       two-sided attractor dimension bounds, JSON
    verify       inequality suites with PASS/FAIL margins, CSV

Every output starts with `#` comment lines recording the version, the
sha256 of the effective configuration, and the seed; identical
configuration and seed give byte-identical output.  Floats are printed with
repr, the shortest decimal that round-trips.  The JSON body of `bounds`
follows the comment lines, so strip `#` lines before handing it to a JSON
parser.  A file named by --output is written whole: to a temporary file
next to it, renamed over it (io.write_atomic).

Configuration may come from a `key = value` file (# comments allowed);
command-line flags override file values.  `RunConfig` is the one table of
settings: each field is a file key and, for the subcommands that take it, a
flag.  A file key that the subcommand does not take is refused, unless it
repeats what the header echoes for it (its default, or for `subcommand` the
running one), so an echoed header reads back as the same configuration.
Exit codes: 0 success, 1 a verify suite failed (or a computation error),
2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, fields
from typing import get_args, get_type_hints

# A pool size is read once, when numpy loads OpenBLAS, and the default pool
# keeps a second core spinning from import on.  No subcommand's BLAS work
# gains from a second thread (depth-sized eigenvalue problems, thin QRs, and
# lyapunov's QR of the tangent stack at its default cadence), so start the
# CLI's pool at one thread unless the environment chose one; --threads caps
# the pool of any command while it runs (spectral._blas_pool, which also
# holds the package's own LAPACK calls at one thread).
_ONE_THREAD_START = "numpy" not in sys.modules and not any(
    os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                    "OMP_NUM_THREADS"))
if _ONE_THREAD_START:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (after the pool size is chosen)

from . import __version__, instability
from .spectral import (ModelParams, SpectralField, _blas_pool, _openblas_pool, curl, make_grid,
                       random_field, zero_field)

# dynamics, io, bounds and inequalities are imported by the commands that run
# them, so a process that runs instability or bounds does not load the flow
# integrator, and loads the file writer of io only for an --output file

__all__ = ["ConfigError", "RunConfig", "config_lines", "load_config", "main", "parse_and_dispatch"]


class ConfigError(Exception):
    pass


_ALL = ("simulate", "lyapunov", "instability", "bounds", "verify")
_FLOW = ("simulate", "lyapunov")


def _setting(default, commands: tuple[str, ...], text: str | None = None):
    """A RunConfig field: its default, the subcommands that take it (as a
    flag and as a file key) and the help text of its flag."""
    return field(default=default, metadata={"commands": commands, "help": text})


@dataclass
class RunConfig:
    """Effective settings of one invocation; file values, then flag overrides.

    This is the one table of settings: a field's annotation types its flag
    and its file value, and its metadata names the subcommands that take it
    and the help text of its flag.  The header echoes every field.
    """

    subcommand: str = _setting("", ())  # named on the command line, never a flag
    alpha: float | None = _setting(None, _ALL, "filter scale alpha > 0")
    gamma: float | None = _setting(None, _ALL, "damping rate gamma > 0")
    grid: int | None = _setting(None, _FLOW, "modes per axis, power of two >= 32")
    dt: float | None = _setting(None, _FLOW, "time step")
    t_end: float | None = _setting(None, ("simulate",), "final time, a whole number of steps")
    forcing: str = _setting("zero", _FLOW, "'zero' | 'kolmogorov S LAMBDA' | 'checkpoint PATH'")
    seed: int = _setting(0, _ALL, "RNG seed (default 0)")
    output: str | None = _setting(None, _ALL, "output file (default: stdout); verify --suite all "
                                  "takes a directory, made if missing, and writes SUITE.csv there")
    threads: int = _setting(
        0, _ALL, "cap on the BLAS thread pool while the command runs, 0 = no cap. The pool has "
        "one thread unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS sets it")
    s: int | None = _setting(None, ("instability",), "forcing wavenumber")
    delta: float = _setting(0.35, ("instability", "verify"), "region parameter (default 0.35)")
    amplitude: float | None = _setting(
        None, ("instability",), "forcing amplitude; default is the threshold-exceeding choice")
    exponents: int = _setting(4, ("lyapunov",), "number of exponents (default 4)")
    renorm_every: int = _setting(10, ("lyapunov",),
                                 "time steps between renormalizations (default 10)")
    t_transient: float | None = _setting(
        None, ("lyapunov",), "time discarded before averaging, a whole number of "
        "renorm_every * dt intervals (default about 50/gamma)")
    t_average: float | None = _setting(
        None, ("lyapunov",), "averaging time, a whole number of renorm_every * dt "
        "intervals (default about 500/gamma)")
    suite: str = _setting("all", ("verify",), "one of lattice-F, rho-l2, trace-k2, "
                          "sigma-bounds, psi-negative, or all (default)")
    initial: str | None = _setting(
        None, _FLOW, "EBV1 checkpoint to start from; it carries its grid and forcing: "
        "a --grid must match it, a --forcing other than zero is refused")
    save: str | None = _setting(None, ("simulate",), "write final state checkpoint here")
    observe_every: int = _setting(1, ("simulate",), "steps between observer rows (default 1)")


_FIELDS = {f.name: f for f in fields(RunConfig)}
# each setting's value type: its annotation without the None
_PARSERS = {name: next(t for t in get_args(hint) or (hint,) if t is not type(None))
            for name, hint in get_type_hints(RunConfig).items()}


def load_config(path: str) -> dict:
    """Parse a `key = value` file into typed values.

    Unknown keys and values of the wrong type are errors; the latter names
    the offending line number.  So are a file that cannot be read and one
    that is not UTF-8 text.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise ConfigError(str(exc)) from None
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{path}: unknown configuration key {key!r}")
        try:
            values[key] = _PARSERS[key](val)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: value {val!r} for key {key!r} is not "
                f"a valid {_PARSERS[key].__name__}"
            ) from None
    return values


def _effective_config(args: argparse.Namespace) -> RunConfig:
    merged = {name: f.default for name, f in _FIELDS.items()}
    if args.config:
        for key, val in load_config(args.config).items():
            # a key the subcommand does not take may only repeat its header echo
            echo = args.subcommand if key == "subcommand" else merged[key]
            if args.subcommand not in _FIELDS[key].metadata["commands"] and val != echo:
                raise ConfigError(f"{args.config}: {args.subcommand} does not read {key!r} "
                                  f"(the file sets {key} = {val!r})")
            merged[key] = val
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    if merged["threads"] < 0:
        raise ConfigError(f"threads = {merged['threads']} must be >= 0, 0 = no cap")
    cfg = RunConfig(**merged)
    config_lines(cfg)  # refuse a setting the header cannot echo before any work starts
    return cfg


def config_lines(cfg: RunConfig) -> list[str]:
    """Canonical `key = value` lines of the effective config; load_config reads
    them back to the same values.

    Raises:
        ConfigError: for a string setting that such a line cannot hold: one
            with `#`, a line break, or leading or trailing whitespace.
    """
    out = []
    for name in sorted(_FIELDS):
        val = getattr(cfg, name)
        if val is None:
            continue
        if isinstance(val, str) and ("#" in val or "\n" in val or "\r" in val
                                     or val != val.strip()):
            raise ConfigError(f"{name} = {val!r}: a setting cannot hold '#', a line break, "
                              "or leading or trailing whitespace")
        out.append(f"{name} = {val!r}" if isinstance(val, float) else f"{name} = {val}")
    return out


def _header(cfg: RunConfig) -> list[str]:
    lines = config_lines(cfg)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    head = [f"# bardina {__version__}", f"# config sha256: {digest}"]
    head += [f"# {line}" for line in lines]
    return head


def _emit(cfg: RunConfig, body: list[str], path: str | None = None) -> None:
    text = "\n".join(_header(cfg) + body) + "\n"
    target = path if path is not None else cfg.output
    if target is None:
        sys.stdout.write(text)
    else:
        from .io import write_atomic

        write_atomic(target, text.encode("utf-8"))


def _output_dir(cfg: RunConfig) -> bool:
    """Whether --output names a directory: verify --suite all writes one file per suite there."""
    return cfg.subcommand == "verify" and cfg.suite == "all" and cfg.output is not None


def _check_targets(cfg: RunConfig) -> None:
    """Refuse a file target that cannot be written before any work starts:
    --output (unless it names a directory) and --save, with a missing parent
    directory, a directory in its place, or no write permission on the file or
    on its directory, where io.write_atomic makes its temporary file."""
    paths = {} if _output_dir(cfg) else {"output": cfg.output}
    if cfg.subcommand == "simulate":
        paths["save"] = cfg.save
    for name, path in paths.items():
        if path is None:
            continue
        parent = os.path.dirname(path) or os.curdir
        if not os.path.isdir(parent):
            problem = f"{parent} is not a directory"
        elif os.path.isdir(path):
            problem = "it is a directory"
        elif not all(os.access(p, os.W_OK) for p in (parent, path) if os.path.exists(p)):
            problem = "no write permission"
        else:
            continue
        raise ConfigError(f"{name} = {path}: cannot write there, {problem}")


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv(rows: list[tuple], columns: tuple[str, ...]) -> list[str]:
    return [",".join(columns)] + [",".join(_fmt(v) for v in row) for row in rows]


def _require(cfg: RunConfig, *names: str) -> None:
    missing = [n for n in names if getattr(cfg, n) is None]
    if missing:
        raise ConfigError(
            f"{cfg.subcommand}: missing required setting(s): {', '.join(missing)}"
        )


def _make_forcing(cfg: RunConfig, grid, params: ModelParams) -> SpectralField:
    """Forcing spec: 'zero' | 'kolmogorov S LAMBDA' | 'checkpoint PATH'."""
    parts = cfg.forcing.split()
    if parts == ["zero"]:
        return zero_field(grid)
    if parts and parts[0] == "kolmogorov":
        if len(parts) != 3:
            raise ConfigError(f"forcing {cfg.forcing!r}: expected 'kolmogorov S LAMBDA'")
        try:
            s, lam = int(parts[1]), float(parts[2])
        except ValueError:
            raise ConfigError(f"forcing {cfg.forcing!r}: S must be int, LAMBDA float") from None
        spec = instability.KolmogorovSpec(s=s, amplitude=lam, gamma=params.gamma)
        return curl(instability.kolmogorov_forcing(spec, grid))
    if parts and parts[0] == "checkpoint":
        if len(parts) != 2:
            raise ConfigError(f"forcing {cfg.forcing!r}: expected 'checkpoint PATH'")
        from .io import read_scalar

        field, fparams, _ = read_scalar(parts[1])
        if field.grid.n != grid.n:
            raise ConfigError(f"forcing checkpoint grid {field.grid.n} != run grid {grid.n}")
        return field
    raise ConfigError(f"unrecognized forcing spec {cfg.forcing!r}")


def _initial_state(cfg: RunConfig, params: ModelParams) -> dynamics.SimState:
    from . import dynamics
    from .io import load_state

    if cfg.initial is not None:
        state = load_state(cfg.initial)
        if cfg.grid is not None and cfg.grid != state.grid.n:
            raise ConfigError(f"grid = {cfg.grid} disagrees with the {state.grid.n}^2 grid of "
                              f"checkpoint {cfg.initial}; the checkpoint carries its grid")
        if cfg.forcing != "zero":
            raise ConfigError(f"forcing = {cfg.forcing!r} cannot be set with an initial "
                              f"checkpoint; {cfg.initial} carries its forcing")
        if state.params != params:
            raise ConfigError(
                f"alpha = {params.alpha!r}, gamma = {params.gamma!r} must match those of "
                f"checkpoint {cfg.initial}: alpha = {state.params.alpha!r}, "
                f"gamma = {state.params.gamma!r}"
            )
        return state
    _require(cfg, "alpha", "gamma", "grid")
    n = cfg.grid
    if n < 32 or (n & (n - 1)) != 0:
        raise ConfigError(f"grid must be a power of two >= 32, got {n}")
    grid = make_grid(n)
    fc = _make_forcing(cfg, grid, params)
    rng = np.random.default_rng(np.random.Philox(cfg.seed))
    omega = random_field(grid, rng, amplitude=1.0, band=max(4, n // 8))
    return dynamics.make_state(omega, params, forcing_curl=fc)


def _cmd_simulate(cfg: RunConfig) -> int:
    from . import dynamics
    from .io import save_state

    _require(cfg, "alpha", "gamma", "dt", "t_end")
    params = ModelParams(alpha=cfg.alpha, gamma=cfg.gamma)
    state = _initial_state(cfg, params)
    state, rows = dynamics.simulate(state, cfg.t_end, cfg.dt, observe_every=cfg.observe_every)
    body = _csv(
        [(r.time, r.enstrophy_bar, r.grad_enstrophy_bar, r.r0_margin) for r in rows],
        ("time", "enstrophy_bar", "grad_enstrophy_bar", "r0_margin"),
    )
    _emit(cfg, body)
    if cfg.save is not None:
        save_state(state, cfg.save)
    return 0


def _cmd_lyapunov(cfg: RunConfig) -> int:
    from .dynamics import lyapunov_spectrum

    _require(cfg, "alpha", "gamma", "dt")
    params = ModelParams(alpha=cfg.alpha, gamma=cfg.gamma)
    state = _initial_state(cfg, params)
    report = lyapunov_spectrum(
        state,
        n=cfg.exponents,
        dt=cfg.dt,
        renorm_every=cfg.renorm_every,
        t_transient=cfg.t_transient,
        t_average=cfg.t_average,
        seed=cfg.seed,
    )
    body = _csv(
        [
            (j + 1, report.exponents[j], report.standard_errors[j], report.partial_sums[j])
            for j in range(len(report.exponents))
        ],
        ("n", "exponent", "standard_error", "q"),
    )
    body.insert(1, f"# lyapunov_dimension = {report.lyapunov_dimension!r}")
    _emit(cfg, body)
    return 0


def _cmd_instability(cfg: RunConfig) -> int:
    _require(cfg, "alpha", "gamma", "s")
    chains = instability.lattice_chains(cfg.s, cfg.delta, cfg.alpha, cfg.gamma, cfg.amplitude)
    rows = []
    for ch, sigma, oracle in zip(chains, instability.solve_sigmas(chains).tolist(),
                                 instability.chain_matrix_eigens(chains).tolist()):
        lo, hi = instability.sigma_bounds(ch, cfg.delta)
        rows.append((cfg.s, ch.t, ch.r, cfg.delta, ch.coupling, sigma, lo, hi, oracle))
    body = _csv(
        rows,
        ("s", "t", "r", "delta", "Lambda", "sigma",
         "sigma_lower_bound", "sigma_upper_bound", "oracle_sigma"),
    )
    _emit(cfg, body)
    return 0


def _cmd_bounds(cfg: RunConfig) -> int:
    from .bounds import dimension_report

    _require(cfg, "alpha", "gamma")
    rep = dimension_report(cfg.alpha, cfg.gamma)
    record = {
        "alpha": rep.alpha,
        "gamma": rep.gamma,
        "curl_g_sq": rep.curl_g_norm_sq,
        "upper": rep.upper,
        "lower": rep.lower,
        "c1": rep.constant_c1,
        "delta_star": rep.delta_star,
        "s": rep.s,
    }
    _emit(cfg, [json.dumps(record, indent=2, sort_keys=True)])
    return 0


# ---------------------------------------------------------------------------
# verify suites


def _suite_lattice_f(cfg: RunConfig):
    from .inequalities import lattice_F

    rows = []
    for m in np.linspace(0.1, 16.0, 61).tolist():
        res = lattice_F(m)
        rows.append((m, res.F_direct, res.tail_bound, res.margin(), res.margin() > 0.0))
    return ("m", "F_direct", "tail_bound", "margin"), rows


def _suite_rho_l2(cfg: RunConfig):
    from .inequalities import rho_l2_check

    rows = []
    for n in (1, 2, 4, 8, 16):
        for m in (0.25, 0.5, 1.0, 2.0):
            res = rho_l2_check(n=n, m=m, trials=25, seed=cfg.seed)
            rows.append((n, m, res.trials, res.worst_ratio, 1.0 - res.worst_ratio,
                         res.violations == 0))
    return ("n", "m", "trials", "worst_ratio", "margin"), rows


def _suite_trace_k2(cfg: RunConfig):
    from .inequalities import trace_k2_check

    rows = []
    rng = np.random.default_rng(np.random.Philox(cfg.seed))
    grid = make_grid(64)
    for m in (0.5, 1.0, 2.0, 4.0):
        for trial in range(5):
            raw = random_field(grid, rng, amplitude=1.0, band=10)
            samples = raw.to_samples()
            v = SpectralField(grid, np.fft.fft2(samples * samples) / grid.n**2)
            res = trace_k2_check(v, m=m)
            margin = res.rhs - res.lhs
            rows.append((m, trial, res.lhs, res.rhs, margin, margin >= 0.0))
    return ("m", "trial", "lhs", "rhs", "margin"), rows


def _suite_sigma_bounds(cfg: RunConfig):
    rows = []
    alpha = cfg.alpha if cfg.alpha is not None else 1.0 / 64.0
    gamma = cfg.gamma if cfg.gamma is not None else 1.0
    for s in (8, 16, 32):
        chains = instability.lattice_chains(s, cfg.delta, alpha, gamma)
        for ch, sigma in zip(chains, instability.solve_sigmas(chains).tolist()):
            lo, hi = instability.sigma_bounds(ch, cfg.delta)
            margin = min(sigma - lo, hi - sigma)
            rows.append((s, ch.t, ch.r, sigma, lo, hi, margin, margin >= 0.0 and sigma > 0.0))
    return ("s", "t", "r", "sigma", "sigma_lower_bound", "sigma_upper_bound", "margin"), rows


def _suite_psi_negative(cfg: RunConfig):
    from .inequalities import psi_big

    rows = []
    for m in np.linspace(0.9, 16.0, 31).tolist():
        val = psi_big(m)
        rows.append((m, val, -val, -val > 0.0))
    return ("m", "psi", "margin"), rows


# each suite returns its columns and its rows; a row ends with whether it passes
_SUITES = {
    "lattice-F": _suite_lattice_f,
    "rho-l2": _suite_rho_l2,
    "trace-k2": _suite_trace_k2,
    "sigma-bounds": _suite_sigma_bounds,
    "psi-negative": _suite_psi_negative,
}


def _cmd_verify(cfg: RunConfig) -> int:
    names = list(_SUITES) if cfg.suite == "all" else [cfg.suite]
    for name in names:
        if name not in _SUITES:
            raise ConfigError(f"unknown suite {name!r}; choose from {', '.join(_SUITES)} or all")
    all_ok = True
    multi = _output_dir(cfg)
    if multi:
        try:
            os.makedirs(cfg.output, exist_ok=True)
        except FileExistsError:
            raise ConfigError(f"output = {cfg.output}: verify --suite all writes one file per "
                              "suite into a directory, and this path is not one") from None
    for name in names:
        columns, rows = _SUITES[name](cfg)
        ok = all(row[-1] for row in rows)
        all_ok &= ok
        body = [f"# suite: {name}", f"# result: {'PASS' if ok else 'FAIL'}"]
        body += _csv([(*row[:-1], "PASS" if row[-1] else "FAIL") for row in rows],
                     (*columns, "status"))
        path = cfg.output
        if multi:
            path = os.path.join(cfg.output, f"{name}.csv")
        _emit(cfg, body, path=path)
    return 0 if all_ok else 1


_COMMANDS = {
    "simulate": (_cmd_simulate, "integrate the vorticity equation"),
    "lyapunov": (_cmd_lyapunov, "Lyapunov exponents and dimension"),
    "instability": (_cmd_instability, "per-chain growth rates in the instability region"),
    "bounds": (_cmd_bounds, "two-sided attractor dimension bounds as JSON"),
    "verify": (_cmd_verify, "inequality verification suites"),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it found it
    parser = argparse.ArgumentParser(
        prog="bardina",
        description="Damped Euler-Bardina model: simulation, instability, dimension bounds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command, (_, text) in _COMMANDS.items():
        p = sub.add_parser(command, help=text, allow_abbrev=False)  # bounds --s 8 is not --seed 8
        p.add_argument("--config", help="key = value configuration file")
        for name, f in _FIELDS.items():
            if command in f.metadata["commands"]:
                p.add_argument("--" + name.replace("_", "-"), dest=name, type=_PARSERS[name],
                               help=f.metadata["help"])
    return parser


def parse_and_dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _effective_config(args)
        _check_targets(cfg)
        if cfg.threads and _openblas_pool() is None:
            print("bardina: no OpenBLAS thread setter found; --threads has no effect",
                  file=sys.stderr)
        with _blas_pool(cfg.threads):
            return _COMMANDS[cfg.subcommand][0](cfg)
    except (ConfigError, OSError) as exc:  # OSError: a path the configuration names
        print(f"bardina: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"bardina: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return parse_and_dispatch()


if __name__ == "__main__":
    sys.exit(main())
