"""Command line interface: parsing, precedence, determinism, exit codes."""
import ctypes
import errno
import glob
import hashlib
import itertools
import json
import os
import shlex
import shutil
import subprocess
import sys
import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bardina
import bardina.cli as cli
from bardina import instability
from bardina.cli import ConfigError, RunConfig, config_lines, load_config, parse_and_dispatch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(bardina.__file__)))


def run(capsys, *argv):
    rc = parse_and_dispatch(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def data_lines(out):
    return [l for l in out.splitlines() if l and not l.startswith("#")]


class TestConfigFile:
    def test_parses_typed_values_and_comments(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text("# a comment\nalpha = 0.25  # trailing\ngrid = 64\nforcing = zero\n")
        assert load_config(str(p)) == {"alpha": 0.25, "grid": 64, "forcing": "zero"}

    def test_unknown_key_named(self, tmp_path):
        # tolerance was a key that nothing read
        p = tmp_path / "run.conf"
        for key in ("frobnicate", "tolerance"):
            p.write_text(f"{key} = 5\n")
            with pytest.raises(ConfigError, match=key):
                load_config(str(p))

    def test_type_mismatch_reports_line_number(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text("# header\nalpha = 0.5\ndt = fast\n")
        with pytest.raises(ConfigError, match=r":3:.*'fast'"):
            load_config(str(p))

    def test_missing_equals_sign(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text("alpha 0.5\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(str(p))

    def test_flag_overrides_file(self, tmp_path, capsys):
        p = tmp_path / "run.conf"
        p.write_text("alpha = 0.01\ngamma = 2\n")
        rc, out, _ = run(capsys, "bounds", "--config", str(p), "--alpha", "0.02")
        assert rc == 0
        assert "# alpha = 0.02" in out
        assert "# gamma = 2.0" in out

    def test_empty_file_equals_flags_only(self, tmp_path, capsys):
        p = tmp_path / "empty.conf"
        p.write_text("# nothing here\n")
        rc1, with_file, _ = run(capsys, "bounds", "--config", str(p),
                                "--alpha", "0.004", "--gamma", "1")
        rc2, flags_only, _ = run(capsys, "bounds", "--alpha", "0.004", "--gamma", "1")
        assert rc1 == rc2 == 0
        assert with_file == flags_only

    def test_echoed_config_reparses_identically(self, tmp_path, capsys):
        rc, out, _ = run(capsys, "bounds", "--alpha", "0.0009765625", "--gamma", "1")
        assert rc == 0
        echoed = [l[2:] for l in out.splitlines() if l.startswith("# ") and " = " in l]
        p = tmp_path / "echo.conf"
        p.write_text("\n".join(echoed) + "\n")
        values = load_config(str(p))
        assert values["alpha"] == 0.0009765625
        assert values["gamma"] == 1.0
        assert values["subcommand"] == "bounds"
        # feeding the echo back yields the same effective config, hence the
        # same sha256 header line
        rc2, out2, _ = run(capsys, "bounds", "--config", str(p))
        assert rc2 == 0
        assert out2.splitlines()[1] == out.splitlines()[1]

    def test_negative_threads_flag_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        rc, out, err = run(capsys, "bounds", "--alpha", "0.004", "--gamma", "1",
                           "--threads", "-4")
        assert rc == 2 and out == ""
        assert "threads = -4" in err
        assert os.environ["OMP_NUM_THREADS"] == "1"

    @pytest.mark.parametrize("value", ["x#1.json", "a\nb.json", " out.json", "out.json\t"])
    def test_setting_the_header_cannot_echo_is_refused(self, tmp_path, capsys, monkeypatch,
                                                      value):
        # the `# output = ...` header line must read back as the same setting
        monkeypatch.chdir(tmp_path)
        rc, out, err = run(capsys, "bounds", "--alpha", "0.004", "--gamma", "1",
                           "--output", value)
        assert rc == 2 and out == "" and "output" in err
        assert list(tmp_path.iterdir()) == []


_KEYS = st.one_of(st.sampled_from(sorted(cli._PARSERS)), st.text(max_size=12))
_LINE_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                            blacklist_characters="\n\r"), max_size=30)
# any text, with the characters a `key = value` line treats specially drawn often
_VALUES = {float: st.floats(), int: st.integers(),
           str: st.text(alphabet=st.one_of(st.sampled_from("#=\n\r \t\x0b\x1c\x85\u2028"),
                                           st.characters(blacklist_categories=("Cs",))),
                        max_size=20)}


def _echoable(value):
    """A `key = value` line holds a string with no comment mark, no line
    break and no outer whitespace; every int and float."""
    return not isinstance(value, str) or not (
        "#" in value or "\n" in value or "\r" in value or value != value.strip())


class TestConfigProperties:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(content=st.one_of(
        st.lists(st.one_of(st.tuples(_KEYS, _LINE_TEXT).map(" = ".join), _LINE_TEXT),
                 max_size=6).map(lambda lines: ("\n".join(lines) + "\n").encode("utf-8")),
        st.binary(max_size=200)))
    def test_arbitrary_lines_parse_or_raise_config_error(self, tmp_path, content):
        p = tmp_path / "any.conf"
        p.write_bytes(content)
        try:
            values = load_config(str(p))
        except ConfigError:
            return
        assert set(values) <= set(cli._PARSERS)
        for key, val in values.items():
            assert type(val) is cli._PARSERS[key]

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_config_lines_round_trip(self, tmp_path, data):
        values = {key: data.draw(st.one_of(st.none(), _VALUES[parse]), label=key)
                  for key, parse in cli._PARSERS.items()}
        try:
            lines = config_lines(RunConfig(**values))
        except ConfigError:
            # refused exactly when some setting cannot be echoed
            assert not all(_echoable(v) for v in values.values())
            return
        assert all(_echoable(v) for v in values.values())
        p = tmp_path / "echo.conf"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        want = {k: v for k, v in values.items() if v is not None}
        got = load_config(str(p))
        assert got.keys() == want.keys()
        for key, val in want.items():
            assert type(got[key]) is type(val) and repr(got[key]) == repr(val), key


_COMMON = {"alpha", "gamma", "seed", "output", "threads"}
# the settings each subcommand takes, as a flag and as a config-file key
_TAKES = {
    "simulate": _COMMON | {"grid", "dt", "t_end", "forcing", "initial", "save", "observe_every"},
    "lyapunov": _COMMON | {"grid", "dt", "forcing", "initial", "exponents", "renorm_every",
                           "t_transient", "t_average"},
    "instability": _COMMON | {"s", "delta", "amplitude"},
    "bounds": _COMMON,
    "verify": _COMMON | {"suite", "delta"},
}
# a value other than the default for every setting
_OTHER = {"subcommand": "verify", "alpha": "0.5", "gamma": "2.0", "grid": "64", "dt": "0.02",
          "t_end": "0.04", "forcing": "kolmogorov 4 2.0", "seed": "5", "output": "other.csv",
          "threads": "1", "s": "8", "delta": "0.3", "amplitude": "30.0", "exponents": "2",
          "renorm_every": "2", "t_transient": "0.08", "t_average": "0.16",
          "suite": "psi-negative", "initial": "start.ebv", "save": "end.ebv",
          "observe_every": "2"}
# a quick run of each subcommand
_TINY = {
    "simulate": ("--alpha", "0.0625", "--gamma", "1", "--grid", "32", "--dt", "0.01",
                 "--t-end", "0.02"),
    "lyapunov": ("--alpha", "0.0625", "--gamma", "1", "--grid", "32", "--dt", "0.05",
                 "--exponents", "1", "--renorm-every", "1", "--t-transient", "0.05",
                 "--t-average", "0.4"),
    "instability": ("--s", "8", "--alpha", "0.01", "--gamma", "1"),
    "bounds": ("--alpha", "0.004", "--gamma", "1"),
    "verify": ("--suite", "psi-negative"),
}
_SETTINGS = list(_OTHER)


def _flag_parses(cmd, key, capsys):
    try:
        args = cli._build_parser().parse_args([cmd, "--" + key.replace("_", "-"), _OTHER[key]])
    except SystemExit as exc:
        assert exc.code == 2
        capsys.readouterr()
        return False
    assert getattr(args, key) == cli._PARSERS[key](_OTHER[key])
    return True


class _Recording:
    """A RunConfig stand-in that notes every setting read from it."""

    def __init__(self, cfg, seen):
        self._cfg, self._seen = cfg, seen

    def __getattr__(self, name):
        self._seen.add(name)
        return getattr(self._cfg, name)


class TestSettingsTable:
    def test_table_lists_every_setting(self):
        assert _SETTINGS == [f.name for f in fields(RunConfig)]

    @pytest.mark.parametrize("key", _SETTINGS)
    @pytest.mark.parametrize("cmd", sorted(_TAKES))
    def test_flag_and_file_key_follow_the_table(self, tmp_path, capsys, monkeypatch, cmd, key):
        # a flag parses exactly when the subcommand takes the setting; a file
        # key it does not take is refused before anything is written
        monkeypatch.chdir(tmp_path)
        assert _flag_parses(cmd, key, capsys) == (key in _TAKES[cmd])
        other = "bounds" if cmd == "verify" and key == "subcommand" else _OTHER[key]
        (tmp_path / "run.conf").write_text(f"{key} = {other}\n")
        if key in _TAKES[cmd]:
            args = cli._build_parser().parse_args([cmd, "--config", "run.conf"])
            assert getattr(cli._effective_config(args), key) == cli._PARSERS[key](other)
            return
        save = ("--save", "saved.ebv") if "save" in _TAKES[cmd] else ()
        rc, out, err = run(capsys, cmd, "--config", "run.conf", *_TINY[cmd],
                           "--output", "out.csv", *save)
        assert rc == 2 and out == ""
        assert f"run.conf: {cmd} does not read {key!r}" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.conf"]

    @pytest.mark.parametrize("cmd, extra", [
        ("simulate", ("--forcing", "kolmogorov 4 2.0", "--observe-every", "2",
                      "--save", "state.ebv")),
        ("simulate", ("--initial", "state.ebv", "--t-end", "0.04")),
        ("lyapunov", ("--seed", "2")),
        ("lyapunov", ("--initial", "state.ebv")),
        ("instability", ("--delta", "0.3")),
        ("instability", ("--amplitude", "30.0")),
        ("bounds", ()),
        ("verify", ("--suite", "all", "--seed", "1")),
    ], ids=["simulate", "simulate-resumed", "lyapunov", "lyapunov-initial", "instability",
            "instability-amplitude", "bounds", "verify"])
    def test_commands_read_only_settings_they_take(self, tmp_path, capsys, monkeypatch,
                                                   cmd, extra):
        monkeypatch.chdir(tmp_path)
        if "--initial" in extra:
            assert run(capsys, "simulate", *_TINY["simulate"], "--save", "state.ebv")[0] == 0
        seen, effective, lines = set(), cli._effective_config, cli.config_lines
        monkeypatch.setattr(cli, "_effective_config",
                            lambda args: _Recording(effective(args), seen))
        # the header echoes every setting; that is not a read by the command
        monkeypatch.setattr(cli, "config_lines", lambda cfg: lines(getattr(cfg, "_cfg", cfg)))
        if "all" in extra:
            os.mkdir("out")  # one file per suite
        rc, _, err = run(capsys, cmd, *_TINY[cmd], *extra, "--output", "out")
        assert rc == 0, err
        assert seen - {"subcommand"} <= {key for key in _SETTINGS
                                         if _flag_parses(cmd, key, capsys)}

    @pytest.mark.parametrize("cmd", sorted(_TAKES))
    def test_echoed_header_reads_back_for_every_subcommand(self, tmp_path, capsys, cmd):
        rc, out, err = run(capsys, cmd, *_TINY[cmd])
        assert rc == 0, err
        p = tmp_path / "echo.conf"
        header = itertools.takewhile(lambda l: l.startswith("#"), out.splitlines())
        p.write_text("\n".join(l[2:] for l in header if " = " in l) + "\n")
        assert "subcommand" in load_config(str(p))
        rc, again, err = run(capsys, cmd, "--config", str(p))
        assert rc == 0, err
        assert again == out

    def test_lyapunov_refuses_simulate_settings_from_a_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"save = {tmp_path / 'state.ebv'}\nobserve_every = 5\n")
        rc, out, err = run(capsys, "lyapunov", "--config", str(cfg), *_TINY["lyapunov"])
        assert rc == 2 and out == ""
        assert "lyapunov does not read 'save'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]

    def test_file_for_another_subcommand_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("subcommand = lyapunov\n")
        rc, out, err = run(capsys, "bounds", "--config", str(cfg), *_TINY["bounds"])
        assert rc == 2 and out == ""
        assert "bounds does not read 'subcommand'" in err

    def test_verify_delta_moves_the_sigma_bounds_suite(self, capsys):
        rc, default, _ = run(capsys, "verify", "--suite", "sigma-bounds")
        rc2, moved, _ = run(capsys, "verify", "--suite", "sigma-bounds", "--delta", "0.3")
        assert rc == rc2 == 0
        assert "# delta = 0.3" in moved.splitlines()
        assert len(data_lines(moved)) > len(data_lines(default))


def _openblas_pool():
    """(get, set) of numpy's bundled OpenBLAS thread count, found independently of the CLI."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for stem in ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads64_",
                     "openblas_%s_num_threads"):
            get = getattr(handle, stem % "get", None)
            put = getattr(handle, stem % "set", None)
            if get is not None and put is not None:
                get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
                return get, put
    pytest.skip("numpy does not bundle an OpenBLAS with a thread setter")


class TestThreadCap:
    @pytest.mark.parametrize("file_threads, flags", [
        (None, ("--threads", "1")), ("1", ()), ("2", ("--threads", "1")),
    ], ids=["flag", "file", "flag-beats-file"])
    def test_threads_cap_blas_pool_for_the_command(self, tmp_path, capsys, monkeypatch,
                                                   file_threads, flags):
        get, put = _openblas_pool()
        original = get()
        seen = []
        oracle = instability.chain_matrix_eigens

        def spy(*args, **kwargs):
            seen.append(get())
            return oracle(*args, **kwargs)

        monkeypatch.setattr(instability, "chain_matrix_eigens", spy)
        config = ()
        if file_threads is not None:
            (tmp_path / "run.conf").write_text(f"threads = {file_threads}\n")
            config = ("--config", str(tmp_path / "run.conf"))
        put(2)
        try:
            before = get()
            rc, _, err = run(capsys, "instability", "--s", "12", "--alpha", "0.0069",
                             "--gamma", "1", *config, *flags)
            after = get()
        finally:
            put(original)
        assert rc == 0 and err == ""
        assert seen and set(seen) == {1}
        assert after == before

    def test_missing_thread_setter_is_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_openblas_pool", lambda: None)
        rc, out, err = run(capsys, "bounds", "--alpha", "0.004", "--gamma", "1", "--threads", "1")
        assert rc == 0 and out.startswith("# bardina ")
        assert err == "bardina: no OpenBLAS thread setter found; --threads has no effect\n"

    def test_threads_leave_the_environment_alone(self, capsys, monkeypatch):
        # bardina starts no child process, so a cap has no business in os.environ
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        env = dict(os.environ)
        rc, _, _ = run(capsys, "bounds", "--alpha", "0.004", "--gamma", "1", "--threads", "2")
        assert rc == 0
        assert dict(os.environ) == env


_POOL_CHILD = """
import os
{preload}
env = dict(os.environ)
from bardina import cli
get, _ = cli._openblas_pool()
print(get(), os.environ.get("OPENBLAS_NUM_THREADS"), env == dict(os.environ))
"""

_PLAIN_CHILD = """
import numpy
from bardina import cli
get, _ = cli._openblas_pool()
print(get())
"""

_LYAPUNOV_CHILD = """
import os
from bardina import cli, dynamics
get, _ = cli._openblas_pool()
seen, spectrum = [], dynamics.lyapunov_spectrum

def spy(*args, **kwargs):
    seen.append(get())
    return spectrum(*args, **kwargs)

dynamics.lyapunov_spectrum = spy
code = cli.parse_and_dispatch(["lyapunov", "--alpha", "0.015625", "--gamma", "1", "--grid", "32",
                               "--dt", "0.05", "--exponents", "2", "--renorm-every", "1",
                               "--t-transient", "0", "--t-average", "0.4",
                               "--output", os.devnull{extra}])
print(code, *seen, get())
"""

_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _pool_child(code, **env):
    """Pool size (and state) seen by a child process started with only these thread variables."""
    base = {k: v for k, v in os.environ.items() if k not in _THREAD_VARIABLES}
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**base, **env, "PYTHONPATH": os.pathsep.join(
                              filter(None, [SRC, os.environ.get("PYTHONPATH")]))},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestBlasDefault:
    # the CLI starts OpenBLAS with one thread unless the environment sets a
    # pool size; the pool is sized when numpy loads, so only a fresh process
    # shows it
    def test_cli_import_starts_a_one_thread_pool(self):
        _openblas_pool()
        assert _pool_child(_POOL_CHILD.format(preload="")) == ["1", "1", "False"]

    @pytest.mark.parametrize("var", _THREAD_VARIABLES)
    def test_environment_pool_is_kept(self, var):
        _openblas_pool()
        plain = _pool_child(_PLAIN_CHILD, **{var: "2"})
        pool, seen, unchanged = _pool_child(_POOL_CHILD.format(preload=""), **{var: "2"})
        assert [pool] == plain and unchanged == "True"
        assert seen == ("2" if var == "OPENBLAS_NUM_THREADS" else "None")

    def test_import_after_numpy_changes_nothing(self):
        _openblas_pool()
        plain = _pool_child(_PLAIN_CHILD)
        pool, seen, unchanged = _pool_child(_POOL_CHILD.format(preload="import numpy"))
        assert [pool] == plain and seen == "None" and unchanged == "True"

    # lyapunov keeps the one-thread pool like every other subcommand
    def test_lyapunov_runs_on_a_one_thread_pool(self):
        _openblas_pool()
        assert _pool_child(_LYAPUNOV_CHILD.format(extra="")) == ["0", "1", "1"]

    def test_lyapunov_pool_is_capped_by_threads(self):
        _openblas_pool()
        plain = _pool_child(_PLAIN_CHILD, OPENBLAS_NUM_THREADS="2")
        assert _pool_child(_LYAPUNOV_CHILD.format(extra=', "--threads", "1"'),
                           OPENBLAS_NUM_THREADS="2") == ["0", "1", *plain]

    def test_lyapunov_keeps_an_environment_pool(self):
        _openblas_pool()
        plain = _pool_child(_PLAIN_CHILD, OPENBLAS_NUM_THREADS="2")
        assert _pool_child(_LYAPUNOV_CHILD.format(extra=""),
                           OPENBLAS_NUM_THREADS="2") == ["0", *plain, *plain]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "transmogrify")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "bounds", "--frobnicate", "1")[0] == 2

    def test_missing_required_setting(self, capsys):
        rc, _, err = run(capsys, "simulate", "--alpha", "0.1", "--gamma", "1")
        assert rc == 2
        assert "missing required" in err

    def test_grid_must_be_power_of_two(self, capsys):
        rc, _, err = run(capsys, "simulate", "--alpha", "0.1", "--gamma", "1",
                         "--grid", "48", "--dt", "0.01", "--t-end", "0.1")
        assert rc == 2
        assert "power of two" in err

    def test_bad_forcing_spec(self, capsys):
        rc, _, err = run(capsys, "simulate", "--alpha", "0.1", "--gamma", "1",
                         "--grid", "32", "--dt", "0.01", "--t-end", "0.1",
                         "--forcing", "vortex 3")
        assert rc == 2
        assert "forcing" in err

    def test_unknown_verify_suite(self, capsys):
        rc, _, err = run(capsys, "verify", "--suite", "nope")
        assert rc == 2
        assert "unknown suite" in err

    def test_missing_config_file(self, capsys):
        rc, _, _ = run(capsys, "bounds", "--config", "/nonexistent.conf",
                       "--alpha", "0.004", "--gamma", "1")
        assert rc == 2

    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    def test_unreadable_config_file(self, tmp_path, kind):
        # a directory, or a file that is not UTF-8 text, is a configuration error
        path = tmp_path
        if kind == "latin-1":
            path = tmp_path / "latin1.conf"
            path.write_bytes("# caf\u00e9\nalpha = 0.004\n".encode("latin-1"))
        proc = _run_child([sys.executable, "-c",
                           "import sys; from bardina.cli import main; sys.exit(main())"],
                          "bounds", "--config", str(path), "--gamma", "1")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("bardina: ") and "Traceback" not in proc.stderr
        assert str(path) in proc.stderr

    def test_output_that_is_a_directory(self, tmp_path, capsys):
        rc, out, err = run(capsys, "bounds", "--alpha", "0.001", "--gamma", "1",
                           "--output", str(tmp_path))
        assert rc == 2 and out == ""
        assert err.startswith("bardina: ") and str(tmp_path) in err

    @pytest.mark.parametrize("fail_at", ["fsync", "replace"])
    def test_failed_output_write_keeps_the_previous_file(self, tmp_path, capsys, monkeypatch,
                                                         fail_at):
        # --output is written whole: a write that fails after the text went out leaves
        # the old file and no temporary file, and the error names the target
        path = tmp_path / "bounds.json"
        argv = ["bounds", "--gamma", "1", "--output", str(path)]
        assert run(capsys, *argv, "--alpha", "0.001")[0] == 0
        before = path.read_bytes()

        def failing(*args):
            names = (args[0], None, args[1]) if fail_at == "replace" else ()  # fsync names none
            raise OSError(errno.EIO, os.strerror(errno.EIO), *names)

        monkeypatch.setattr(os, fail_at, failing)
        rc, out, err = run(capsys, *argv, "--alpha", "0.002")
        monkeypatch.undo()
        assert rc == 2 and out == ""
        assert err.startswith("bardina: ") and str(path) in err and ".tmp" not in err
        assert os.listdir(tmp_path) == ["bounds.json"] and path.read_bytes() == before

    def test_unwritable_output_directory_stops_before_any_work(self, tmp_path, capsys,
                                                               monkeypatch):
        # the file is replaced through a temporary file next to it, so its
        # directory must take a new file even where the file itself is writable
        path = tmp_path / "run.csv"
        path.write_text("keep\n")
        access = os.access
        monkeypatch.setattr(os, "access",
                            lambda p, mode: access(p, mode) and os.fspath(p) != str(tmp_path))
        ran = []
        monkeypatch.setattr(instability, "lattice_chains", lambda *a, **k: ran.append(a))
        rc, out, err = run(capsys, "instability", *_TINY["instability"], "--output", str(path))
        assert rc == 2 and out == "" and ran == []
        assert err.startswith("bardina: ") and "no write permission" in err
        assert path.read_text() == "keep\n"

    def test_verify_all_into_a_file(self, tmp_path, capsys):
        path = tmp_path / "report"
        path.write_text("keep\n")
        rc, out, err = run(capsys, "verify", "--suite", "all", "--output", str(path))
        assert rc == 2 and out == ""
        assert err.startswith("bardina: ") and str(path) in err
        assert path.read_text() == "keep\n"

    def test_save_into_a_missing_directory_names_the_checkpoint(self, tmp_path, capsys):
        target = tmp_path / "nodir" / "x.ebv"
        rc, _, err = run(capsys, *TestSimulate.ARGS, "--save", str(target),
                         "--output", str(tmp_path / "run.csv"))
        assert rc == 2
        assert err.startswith("bardina: ") and str(target) in err and ".tmp" not in err
        assert os.listdir(tmp_path) == []  # checked before the run, so no run.csv either

    @pytest.mark.parametrize("cmd, extra, named", [
        ("simulate", ("--save", "nodir/x.ebv", "--output", "run.csv"), "nodir/x.ebv"),
        ("simulate", ("--output", "nodir/run.csv"), "nodir/run.csv"),
        ("lyapunov", ("--output", "nodir/run.csv"), "nodir/run.csv"),
        ("instability", ("--output", "nodir/run.csv"), "nodir/run.csv"),
        ("instability", ("--output", "taken"), "taken"),
        ("bounds", ("--output", "nodir/bounds.json"), "nodir/bounds.json"),
        ("verify", ("--output", "nodir/run.csv"), "nodir/run.csv"),
    ], ids=["simulate-save", "simulate", "lyapunov", "instability", "instability-directory",
            "bounds", "verify"])
    def test_unwritable_target_stops_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                     cmd, extra, named):
        from bardina import bounds, dynamics

        monkeypatch.chdir(tmp_path)
        os.mkdir("taken")
        ran = []
        for module, name in [(dynamics, "make_state"), (dynamics, "simulate"),
                             (dynamics, "lyapunov_spectrum"), (instability, "lattice_chains"),
                             (instability, "solve_sigmas"), (instability, "chain_matrix_eigens"),
                             (bounds, "dimension_report")]:
            monkeypatch.setattr(module, name, lambda *a, name=name, **k: ran.append(name))
        for suite in cli._SUITES:
            monkeypatch.setitem(cli._SUITES, suite, lambda cfg, suite=suite: ran.append(suite))
        rc, out, err = run(capsys, cmd, *_TINY[cmd], *extra)
        assert rc == 2 and out == "" and ran == []
        assert err.startswith("bardina: ") and named in err
        assert os.listdir() == ["taken"] and os.listdir("taken") == []


class TestHeaders:
    def test_every_output_starts_with_version_hash_seed(self, capsys):
        rc, out, _ = run(capsys, "bounds", "--alpha", "0.004", "--gamma", "1",
                         "--seed", "7")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("# bardina ")
        assert lines[1].startswith("# config sha256: ")
        assert "# seed = 7" in lines

    def test_byte_identical_repeats(self, capsys):
        args = ("simulate", "--alpha", "0.0625", "--gamma", "1", "--grid", "32",
                "--dt", "0.01", "--t-end", "0.05", "--seed", "3")
        rc1, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_different_seed_changes_payload_not_format(self, capsys):
        base = ("simulate", "--alpha", "0.0625", "--gamma", "1", "--grid", "32",
                "--dt", "0.01", "--t-end", "0.05")
        _, out1, _ = run(capsys, *base, "--seed", "1")
        _, out2, _ = run(capsys, *base, "--seed", "2")
        assert out1 != out2
        assert data_lines(out1)[0] == data_lines(out2)[0]  # same column header


class TestSimulate:
    ARGS = ("simulate", "--alpha", "0.0625", "--gamma", "1", "--grid", "32",
            "--dt", "0.01", "--t-end", "0.1")

    def test_observer_csv_columns(self, capsys):
        rc, out, _ = run(capsys, *self.ARGS)
        assert rc == 0
        rows = data_lines(out)
        assert rows[0] == "time,enstrophy_bar,grad_enstrophy_bar,r0_margin"
        assert len(rows) == 12  # header + 11 observations
        assert rows[1].split(",")[0] == "0.0"

    def test_observe_every(self, capsys):
        rc, out, _ = run(capsys, *self.ARGS, "--observe-every", "5")
        assert rc == 0
        assert len(data_lines(out)) == 4  # header + t=0, 0.05, 0.1

    def test_save_and_resume_matches_single_run(self, tmp_path, capsys):
        ck = str(tmp_path / "mid.ebv")
        rc, _, _ = run(capsys, *self.ARGS, "--save", ck)
        assert rc == 0
        rc, out_resumed, _ = run(capsys, "simulate", "--alpha", "0.0625",
                                 "--gamma", "1", "--dt", "0.01", "--t-end", "0.2",
                                 "--initial", ck)
        assert rc == 0
        rc, out_direct, _ = run(capsys, "simulate", "--alpha", "0.0625",
                                "--gamma", "1", "--grid", "32", "--dt", "0.01",
                                "--t-end", "0.2")
        assert rc == 0
        assert data_lines(out_resumed)[-1] == data_lines(out_direct)[-1]

    @pytest.mark.parametrize("flags, setting", [
        (("--grid", "64"), "grid"),
        (("--forcing", "kolmogorov 8 9.0"), "forcing"),
    ], ids=["grid", "forcing"])
    def test_resume_rejects_grid_and_forcing(self, tmp_path, capsys, flags, setting):
        # the checkpoint carries its own grid and forcing; a run that ignored
        # the flags would record them in its header without using them
        ck = str(tmp_path / "mid.ebv")
        rc, _, _ = run(capsys, *self.ARGS, "--forcing", "kolmogorov 4 2.0", "--save", ck)
        assert rc == 0
        rc, out, err = run(capsys, "simulate", "--alpha", "0.0625", "--gamma", "1",
                           "--dt", "0.01", "--t-end", "0.2", "--initial", ck, *flags)
        assert rc == 2
        assert out == ""
        assert setting in err
        rc, _, _ = run(capsys, "simulate", "--alpha", "0.0625", "--gamma", "1", "--grid", "32",
                       "--dt", "0.01", "--t-end", "0.2", "--initial", ck)
        assert rc == 0  # repeating the checkpoint's grid is fine

    @pytest.mark.parametrize("flags, named", [
        (("--alpha", "0.125", "--gamma", "1"), "alpha = 0.125, gamma = 1.0"),
        (("--alpha", "0.0625", "--gamma", "2"), "alpha = 0.0625, gamma = 2.0"),
    ], ids=["alpha", "gamma"])
    def test_resume_rejects_other_parameters(self, tmp_path, capsys, flags, named):
        # alpha and gamma are required on every run, so they must repeat the checkpoint's
        ck = str(tmp_path / "mid.ebv")
        rc, _, _ = run(capsys, *self.ARGS, "--save", ck)
        assert rc == 0
        rc, out, err = run(capsys, "simulate", *flags, "--dt", "0.01", "--t-end", "0.2",
                           "--initial", ck)
        assert rc == 2
        assert out == ""
        assert err == (f"bardina: {named} must match those of checkpoint {ck}: "
                       f"alpha = 0.0625, gamma = 1.0\n")

    @pytest.mark.parametrize("t_end", ["0.105", "inf", "nan"])
    def test_bad_t_end_exits_1(self, capsys, t_end):
        rc, out, err = run(capsys, "simulate", "--alpha", "0.0625", "--gamma", "1",
                           "--grid", "32", "--dt", "0.01", "--t-end", t_end)
        assert rc == 1 and out == ""
        assert err.startswith(f"bardina: t_end = {t_end} ") and "Traceback" not in err

    def test_output_file(self, tmp_path, capsys):
        p = tmp_path / "run.csv"
        rc, out, _ = run(capsys, *self.ARGS, "--output", str(p))
        assert rc == 0
        assert out == ""
        assert p.read_text().startswith("# bardina ")

    @pytest.mark.parametrize("dt", ["0", "-0.01", "nan", "inf"])
    def test_bad_dt_exits_1(self, capsys, dt):
        rc, out, err = run(capsys, "simulate", "--alpha", "0.0625", "--gamma", "1",
                           "--grid", "32", "--dt", dt, "--t-end", "0.1")
        assert rc == 1
        assert out == ""
        assert "dt must be positive and finite" in err

    def test_kolmogorov_forcing_spec(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--alpha", "0.0625", "--gamma", "1",
                         "--grid", "32", "--dt", "0.01", "--t-end", "0.05",
                         "--forcing", "kolmogorov 4 3.0")
        assert rc == 0
        final = data_lines(out)[-1].split(",")
        assert float(final[3]) > 0.0  # inside the absorbing ball


class TestLyapunovCommand:
    def test_unforced_spectrum_csv(self, capsys):
        # the random initial state decays like e^{-gamma t}; by t = 18 its
        # transport contribution to the exponents is far below the tolerance
        rc, out, _ = run(capsys, "lyapunov", "--alpha", "0.0625", "--gamma", "1",
                         "--grid", "32", "--dt", "0.05", "--exponents", "2",
                         "--t-transient", "18", "--t-average", "5")
        assert rc == 0
        rows = data_lines(out)
        assert rows[0] == "n,exponent,standard_error,q"
        assert len(rows) == 3
        for row in rows[1:]:
            assert float(row.split(",")[1]) == pytest.approx(-1.0, abs=1e-6)
        assert "# lyapunov_dimension = 0.0" in out

    def test_readme_example_runs(self, capsys):
        # the documented command line, with windows shortened to keep it quick
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as f:
            text = f.read().replace("\\\n", " ")
        (line,) = [l for l in text.splitlines() if l.startswith("bardina lyapunov ")]
        argv = shlex.split(line)[1:] + ["--t-transient", "0.5", "--t-average", "4"]
        rc, out, err = run(capsys, *argv)
        assert rc == 0, err
        assert len(data_lines(out)) == 5

    @pytest.mark.parametrize("flag, value", [
        ("--t-transient", "inf"), ("--t-average", "nan"),
        ("--dt", "0"), ("--dt", "-0.01"), ("--dt", "nan"), ("--dt", "inf"),
    ])
    def test_bad_window_exits_1(self, capsys, flag, value):
        # the last of two --dt flags wins
        rc, _, err = run(capsys, "lyapunov", "--alpha", "0.0625", "--gamma", "1",
                         "--grid", "32", "--dt", "0.05", flag, value)
        assert rc == 1
        assert flag[2:].replace("-", "_") in err


class TestInstabilityCommand:
    def test_spec_example_all_chains_unstable(self, capsys):
        rc, out, _ = run(capsys, "instability", "--s", "12", "--delta", "0.35",
                         "--alpha", "0.0069", "--gamma", "1")
        assert rc == 0
        rows = data_lines(out)
        cols = rows[0].split(",")
        assert cols == ["s", "t", "r", "delta", "Lambda", "sigma",
                        "sigma_lower_bound", "sigma_upper_bound", "oracle_sigma"]
        assert len(rows) == 7  # six admissible chains at s = 12
        i = cols.index("sigma")
        for row in rows[1:]:
            vals = row.split(",")
            assert float(vals[i]) > 0.0
            lo, hi = float(vals[i + 1]), float(vals[i + 2])
            assert lo <= float(vals[i]) <= hi

    def test_explicit_amplitude(self, capsys):
        rc, out, _ = run(capsys, "instability", "--s", "8", "--delta", "0.3",
                         "--alpha", "0.01", "--gamma", "1", "--amplitude", "40")
        assert rc == 0
        assert len(data_lines(out)) >= 2


@pytest.mark.parametrize("command", [("bounds",), ("instability", "--s", "8")],
                         ids=["bounds", "instability"])
@pytest.mark.parametrize("name, value", [
    ("alpha", "nan"), ("alpha", "inf"), ("alpha", "-0.01"), ("gamma", "nan"), ("gamma", "inf"),
])
def test_bad_alpha_or_gamma_is_named(capsys, command, name, value):
    values = {"alpha": "0.01", "gamma": "1", name: value}
    rc, out, err = run(capsys, *command, "--alpha", values["alpha"], "--gamma", values["gamma"])
    assert rc == 1 and out == ""
    assert err == f"bardina: {name} must be positive and finite, got {value}\n"


class TestBoundsCommand:
    def test_spec_example_json(self, capsys):
        rc, out, _ = run(capsys, "bounds", "--alpha", "0.0009765625", "--gamma", "1")
        assert rc == 0
        payload = json.loads("\n".join(data_lines(out)))
        assert set(payload) == {"alpha", "gamma", "curl_g_sq", "upper", "lower",
                                "c1", "delta_star", "s"}
        assert payload["alpha"] == 0.0009765625
        assert 0.0 < payload["lower"] <= payload["upper"]
        assert payload["s"] == 32  # ceil(1/sqrt(alpha))

    def test_tiny_alpha_needs_one_admissible_point(self, capsys):
        # s = 100000: the whole admissible lattice would hold about 2.8e8 points;
        # s = 10^8: a scan of its first row would pass some 10^7 points
        for alpha, s in (("1e-10", 100000), ("1e-16", 100000000)):
            start = time.perf_counter()
            rc, out, _ = run(capsys, "bounds", "--alpha", alpha, "--gamma", "1")
            assert time.perf_counter() - start < 1.0
            assert rc == 0
            assert json.loads("\n".join(data_lines(out)))["s"] == s


class TestVerifyCommand:
    def test_lattice_f_suite_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "lattice-F")
        assert rc == 0
        assert "# suite: lattice-F" in out
        assert "# result: PASS" in out
        rows = data_lines(out)
        assert len(rows) == 62  # column header + 61 grid points
        assert rows[0].endswith(",status")
        assert all(r.endswith(",PASS") for r in rows[1:])

    def test_all_suites_to_directory(self, tmp_path, capsys):
        outdir = tmp_path / "suites"
        outdir.mkdir()
        rc, _, _ = run(capsys, "verify", "--suite", "all", "--output", str(outdir))
        assert rc == 0
        names = sorted(f.name for f in outdir.iterdir())
        assert names == ["lattice-F.csv", "psi-negative.csv", "rho-l2.csv",
                         "sigma-bounds.csv", "trace-k2.csv"]
        for f in outdir.iterdir():
            assert "# result: PASS" in f.read_text()

    def test_all_suites_to_a_new_directory(self, tmp_path, capsys):
        outdir = tmp_path / "report_dir" / "today"
        rc, _, err = run(capsys, "verify", "--suite", "all", "--output", str(outdir))
        assert rc == 0, err
        assert sorted(f.name for f in outdir.iterdir()) == [
            "lattice-F.csv", "psi-negative.csv", "rho-l2.csv", "sigma-bounds.csv", "trace-k2.csv"]

    def test_failing_suite_exit_code(self, capsys, monkeypatch):
        def rigged(cfg):
            return ("x",), [(1.0, True), (2.0, False)]

        monkeypatch.setitem(cli._SUITES, "lattice-F", rigged)
        rc, out, _ = run(capsys, "verify", "--suite", "lattice-F")
        assert rc == 1
        assert "# result: FAIL" in out
        assert data_lines(out) == ["x,status", "1.0,PASS", "2.0,FAIL"]


def _declared_entry_point():
    """The target that pyproject.toml declares for the `bardina` console script."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        return tomllib.load(f)["project"]["scripts"]["bardina"]


def _run_child(command, *args):
    """Run a child process that imports the same copy of bardina as this test."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([*command, *args], env=env, capture_output=True, text=True,
                          timeout=120)


class TestConsoleScript:
    def test_entry_point_installed(self):
        # the script pip generates imports the declared target and exits with
        # its return value; run that in a child process, and the installed
        # script too wherever one is on PATH
        target = _declared_entry_point()
        module, _, func = target.partition(":")
        assert module and func, target
        commands = [[sys.executable, "-c",
                     f"import sys; from {module} import {func}; sys.exit({func}())"]]
        script = shutil.which("bardina")
        if script is not None:
            commands.append([script])
        for command in commands:
            proc = _run_child(command, "verify", "--suite", "psi-negative")
            assert proc.returncode == 0, (command, proc.stderr)
            assert proc.stdout.startswith("# bardina "), command
            assert _run_child(command, "transmogrify").returncode == 2, command

    def test_module_runs_like_the_console_script(self):
        # `python -m bardina.cli` is the console script without an install
        module, _, func = _declared_entry_point().partition(":")
        script = [sys.executable, "-c",
                  f"import sys; from {module} import {func}; sys.exit({func}())"]
        as_module = [sys.executable, "-m", "bardina.cli"]
        args = ("bounds", "--alpha", "0.001", "--gamma", "1")
        want, got = _run_child(script, *args), _run_child(as_module, *args)
        assert want.returncode == got.returncode == 0, got.stderr
        assert got.stdout.startswith("# bardina ") and got.stdout == want.stdout
        assert _run_child(as_module, "bounds", "--frobnicate", "1").returncode == 2

    @pytest.mark.parametrize("argv", [
        ["instability", "--alpha", "0.006944", "--gamma", "1", "--s", "12"],
        ["bounds", "--alpha", "0.001", "--gamma", "1"],
        ["instability", "--alpha", "0.006944", "--gamma", "1", "--s", "12",
         "--output", "{tmp}/out.csv"],
    ], ids=["instability", "bounds", "instability-output"])
    def test_lower_bound_commands_load_no_flow_code(self, argv, tmp_path):
        # the integrator and the checkpoint format are imported by the commands that run
        # them; an --output file loads io for its writer, but not the integrator, and
        # the writer names its temporary file without the secrets module
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        proc = _run_child([sys.executable, "-c",
                           "import sys; from bardina.cli import parse_and_dispatch; "
                           f"code = parse_and_dispatch({argv!r}); "
                           "print(sorted(m for m in sys.modules "
                           "if m.startswith('bardina.') or m == 'secrets'), "
                           "file=sys.stderr); sys.exit(code)"])
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stderr.strip().splitlines()[-1]
        assert "'bardina.instability'" in loaded
        assert "'bardina.dynamics'" not in loaded
        assert "'bardina.inequalities'" not in loaded
        assert "'secrets'" not in loaded
        to_file = "--output" in argv
        assert ("'bardina.io'" in loaded) == to_file
        if to_file:
            assert (tmp_path / "out.csv").read_text().startswith("# bardina ")

    def test_one_parser_serves_every_call_of_a_process(self):
        # each call prints what it prints in a fresh process, an argparse exit included
        child = ("import contextlib, io, json, sys\n"
                 "from bardina import cli\n"
                 "seen = []\n"
                 "for argv in json.loads(sys.argv[1]):\n"
                 "    out, err = io.StringIO(), io.StringIO()\n"
                 "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
                 "        seen.append((cli.parse_and_dispatch(argv), out.getvalue(), "
                 "err.getvalue()))\n"
                 "print(json.dumps([seen, cli._build_parser.cache_info().misses]))\n")
        calls = [["bounds", "--alpha", "0.001", "--gamma", "1"],
                 ["bounds", "--alpha", "0.001", "--frobnicate", "1"],
                 ["instability", "--alpha", "0.006944", "--gamma", "1", "--s", "12"],
                 ["bounds", "--alpha", "0.001", "--gamma", "1"]]

        def results(argvs):
            proc = _run_child([sys.executable, "-c", child, json.dumps(argvs)])
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        together, builds = results(calls)
        assert builds == 1
        assert [code for code, _, _ in together] == [0, 2, 0, 0]
        assert together == [results([argv])[0][0] for argv in calls]

    def test_subprocess_smoke(self):
        proc = _run_child(
            [sys.executable, "-c",
             "import sys; from bardina.cli import parse_and_dispatch; "
             "sys.exit(parse_and_dispatch(['verify', '--suite', 'psi-negative']))"],
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("# bardina ")


# sha256 of stdout, made with numpy 2.4.6: instability at s = 8, 12, 24, alpha = 1/s^2,
# gamma 1/4..2; bounds at alpha = 2^-k, k = 6..12; a short simulate and lyapunov run on
# 32^2 and the verify suites that run in under a second.  The header holds the package
# version, so a version change moves every digest.
GOLDEN_NUMPY = "2.4.6"
GOLDEN = {
    "instability --s 8 --alpha 0.015625 --gamma 0.25 --delta 0.35":
        "c28d34c5f4a07063cc60d116dd910037f892e18fd928033b8dd0cc9daa6f928a",
    "instability --s 8 --alpha 0.015625 --gamma 0.5 --delta 0.35":
        "d786cceb5d4c35f877e7470a93450327ef934ec8ec54b5ae7b1d4ddf74a81cce",
    "instability --s 8 --alpha 0.015625 --gamma 1.0 --delta 0.35":
        "2e8c73d89eafd30f0ac197cb52481358667921e95f3bf2c30e21f1bfd3771668",
    "instability --s 8 --alpha 0.015625 --gamma 2.0 --delta 0.35":
        "3ebb4fb413d7b8098b2bd211ffbed0333d5ab7c2de36c89a63c655acc89a636b",
    "instability --s 12 --alpha 0.006944444444444444 --gamma 0.25 --delta 0.35":
        "1b7769e775101749833ea58da89edc04bfea1432ee0c38da2f35ebc946221380",
    "instability --s 12 --alpha 0.006944444444444444 --gamma 0.5 --delta 0.35":
        "9745478f04a523018a043639a7ffd7f0caa5ca0ab69db486b5870d420d7745ee",
    "instability --s 12 --alpha 0.006944444444444444 --gamma 1.0 --delta 0.35":
        "5bc6da3909158228b828c812f8fb14a7770f21033c34238bec82c963f567be59",
    "instability --s 12 --alpha 0.006944444444444444 --gamma 2.0 --delta 0.35":
        "a078d64afdd20d17834d331b157b060fe6b5943ab82fb2cc26eb4c4cb5f9fe9d",
    "instability --s 24 --alpha 0.001736111111111111 --gamma 0.25 --delta 0.35":
        "c2f906233a410a08bc87ce536a6bf7d3aa16f54ed7e5ebbc2ae0fc3e1ed10127",
    "instability --s 24 --alpha 0.001736111111111111 --gamma 0.5 --delta 0.35":
        "7b9f78edbc1d6168562974ee3d22e567e363ce7eb38386407aa7f9cde49b622a",
    "instability --s 24 --alpha 0.001736111111111111 --gamma 1.0 --delta 0.35":
        "e20979e1f74404d6215937a73855df7b4b32be1dd37d6c5f037d58a639784c7e",
    "instability --s 24 --alpha 0.001736111111111111 --gamma 2.0 --delta 0.35":
        "aeb3298b1f86aed1442cf74fc86a5add946ba2f03f7a37eb6f5e25f36c883a6a",
    "bounds --alpha 0.015625 --gamma 1":
        "b1a5671ccfded750d51bb6753000c7e8fe5d0e9ff68c1c12aff2ddc835f6288e",
    "bounds --alpha 0.0078125 --gamma 1":
        "937359fec1c891e752d310e67c4cf9364839858fa5d3e88363151ce90fa858ce",
    "bounds --alpha 0.00390625 --gamma 1":
        "3c8280458d211ff41f8984d5e57fb5232d8f6a6a8806d4244d056f864c6579aa",
    "bounds --alpha 0.001953125 --gamma 1":
        "0f5c809751817760ceb551fd8bb6ade4d55fa2b99ee3aee91c40c00c47433902",
    "bounds --alpha 0.0009765625 --gamma 1":
        "a7807633f6b126f49e9ad6b4e537221e4309403db118f8a531d5faba5f392255",
    "bounds --alpha 0.00048828125 --gamma 1":
        "3dc265f79ee7df31b855f0491dd699cc17c9446600c020ba71a287ab94b121ee",
    "bounds --alpha 0.000244140625 --gamma 1":
        "ff8ab50697fbdae9ed9d0d4a6ce5627797796126fe94fcf9bad62ecec86005cb",
    "verify --suite sigma-bounds":
        "606f1f0c58a506727b7464f0a3001d0487258b0e6a8e12283b082cb346c47f3f",
    "verify --suite lattice-F":
        "21be9ed5dfc76c87525cd5f75475453d7e2301f3ceafdf3962c80cc4fbf11602",
    "verify --suite rho-l2":
        "175fbe117f2483625e2e0e79d6b8ce438307c13a254f004b1247dca4fa4a753f",
    "verify --suite trace-k2":
        "c9bf60dee4cbe252727fc241dcc02edeec2a20f84246870cb34c0ec4b77db59d",
    "verify --suite psi-negative":
        "7164b63d236407d501ff3cb508a83700ed999e18c48e928103c53b72d856434a",
    "simulate --alpha 0.015625 --gamma 1.0 --grid 32 --dt 0.01 --t-end 0.2 "
    "--forcing 'kolmogorov 4 5.0' --save out.ckpt":
        "0786bb808f05186629bb967c0779dd252ff541d247565dd1cf62aa0a33f59bfe",
    "lyapunov --alpha 0.015625 --gamma 1.0 --grid 32 --dt 0.02 --exponents 2 "
    "--renorm-every 5 --t-transient 0.2 --t-average 0.8 --forcing 'kolmogorov 4 5.0'":
        "b55fb11636c2a03edeb2ef559efb2b2d62d685a11b12aff315a3287a9921fa30",
}
GOLDEN_FILES = {  # sha256 of each file a GOLDEN command writes into its working directory
    "simulate --alpha 0.015625 --gamma 1.0 --grid 32 --dt 0.01 --t-end 0.2 "
    "--forcing 'kolmogorov 4 5.0' --save out.ckpt": {
        "out.ckpt": "7b165d3955b79caa76d3f44987fb7b03ba12679327b7734f79df3919b5270085",
        "out.ckpt.forcing": "62e510767e3fd8ed10d763193a740f891dc8a638c2c0a67ad0550e11033f5cbb",
    },
}


@pytest.mark.skipif(np.__version__ != GOLDEN_NUMPY,
                    reason=f"digests made with numpy {GOLDEN_NUMPY}, running {np.__version__}")
@pytest.mark.parametrize("argv", list(GOLDEN))
def test_golden_output_bytes(capsys, monkeypatch, tmp_path, argv):
    # in-process, on the test process's BLAS pool: the bytes must not depend on its size
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *shlex.split(argv))
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == GOLDEN_FILES.get(argv, {})
