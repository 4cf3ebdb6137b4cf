"""Checkpoint format: exact layout, round trips (property-based too), restart identity."""
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bardina.dynamics import make_state, simulate, step
from bardina.instability import KolmogorovSpec, kolmogorov_forcing
from bardina.io import load_state, read_scalar, save_state, write_atomic, write_scalar
from bardina.spectral import (
    ModelParams,
    SpectralField,
    hermitianize,
    make_grid,
    random_field,
)

PARAMS = ModelParams(alpha=0.25, gamma=1.5)


def _real_field(grid, rng):
    return random_field(grid, rng, amplitude=2.0)


class TestScalarFormat:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        grid = make_grid(32)
        f = _real_field(grid, rng)
        p = str(tmp_path / "f.ebv")
        write_scalar(p, f, PARAMS, 3.75)
        g, params, time = read_scalar(p)
        assert np.array_equal(g.coeffs, f.coeffs)
        assert params == PARAMS
        assert time == 3.75

    def test_header_layout(self, tmp_path, rng):
        grid = make_grid(16)
        p = str(tmp_path / "f.ebv")
        write_scalar(p, _real_field(grid, rng), PARAMS, 2.0)
        blob = open(p, "rb").read()
        assert len(blob) == 32 + 16 * 16 * 16
        assert blob[:4] == b"EBV1"
        (n,) = struct.unpack_from("<I", blob, 4)
        alpha, gamma, time = struct.unpack_from("<ddd", blob, 8)
        assert (n, alpha, gamma, time) == (16, 0.25, 1.5, 2.0)

    def test_payload_is_shifted_row_major(self, tmp_path):
        # mode k = (1, -2) must land at row n/2+1, column n/2-2 of the payload
        n = 16
        grid = make_grid(n)
        arr = np.zeros((n, n), dtype=complex)
        arr[1, -2] = 0.3 - 0.7j
        f = SpectralField(grid, hermitianize(grid, 2.0 * arr))
        c = f.coeffs[1, -2]
        p = str(tmp_path / "f.ebv")
        write_scalar(p, f, PARAMS, 0.0)
        blob = open(p, "rb").read()
        offset = 32 + ((n // 2 + 1) * n + (n // 2 - 2)) * 16
        re, im = struct.unpack_from("<dd", blob, offset)
        assert complex(re, im) == c

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "f.ebv"
        p.write_bytes(b"XXXX" + bytes(28 + 16 * 16 * 16))
        with pytest.raises(ValueError, match="bad magic"):
            read_scalar(str(p))

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "f.ebv"
        p.write_bytes(b"EBV1\x10")
        with pytest.raises(ValueError, match="truncated"):
            read_scalar(str(p))

    def test_wrong_payload_size(self, tmp_path, rng):
        grid = make_grid(16)
        p = tmp_path / "f.ebv"
        write_scalar(str(p), _real_field(grid, rng), PARAMS, 0.0)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValueError, match="expected"):
            read_scalar(str(p))

    def test_invalid_grid_size(self, tmp_path):
        p = tmp_path / "f.ebv"
        p.write_bytes(struct.pack("<4sIddd", b"EBV1", 15, 1.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="grid size"):
            read_scalar(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_scalar(str(tmp_path / "absent.ebv"))


class TestStateCheckpoint:
    def _state(self, rng, n=32):
        grid = make_grid(n)
        spec = KolmogorovSpec(s=4, amplitude=2.0, gamma=PARAMS.gamma)
        return make_state(random_field(grid, rng, band=6), PARAMS,
                          forcing=kolmogorov_forcing(spec, grid), time=1.5)

    def test_save_load_round_trip(self, tmp_path, rng):
        st = self._state(rng)
        p = str(tmp_path / "state.ebv")
        save_state(st, p)
        back = load_state(p)
        assert np.array_equal(back.omega.coeffs, st.omega.coeffs)
        assert np.array_equal(back.forcing_curl.coeffs, st.forcing_curl.coeffs)
        assert back.params == st.params
        assert back.time == st.time

    def test_missing_forcing_file(self, tmp_path, rng):
        st = self._state(rng)
        p = str(tmp_path / "state.ebv")
        save_state(st, p)
        (tmp_path / "state.ebv.forcing").unlink()
        with pytest.raises(FileNotFoundError, match="forcing"):
            load_state(p)

    def test_forcing_params_mismatch(self, tmp_path, rng):
        st = self._state(rng)
        p = str(tmp_path / "state.ebv")
        save_state(st, p)
        other = ModelParams(alpha=0.5, gamma=1.5)
        write_scalar(p + ".forcing", st.forcing_curl, other, st.time)
        with pytest.raises(ValueError, match="disagrees"):
            load_state(p)

    def test_nan_payload_rejected(self, tmp_path, rng):
        st = self._state(rng)
        p = str(tmp_path / "state.ebv")
        save_state(st, p)
        blob = bytearray(open(p, "rb").read())
        struct.pack_into("<d", blob, 32 + 16 * 5, float("nan"))  # real part of one mode
        open(p, "wb").write(bytes(blob))
        with pytest.raises(ValueError, match="not finite"):
            load_state(p)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_header_time_rejected(self, tmp_path, rng, bad):
        st = self._state(rng)
        p = str(tmp_path / "state.ebv")
        save_state(st, p)
        blob = bytearray(open(p, "rb").read())
        struct.pack_into("<d", blob, 24, bad)  # header: magic, n, alpha, gamma, time
        open(p, "wb").write(bytes(blob))
        with pytest.raises(ValueError, match="time must be finite"):
            load_state(p)

    @pytest.mark.parametrize("fail_at, nth", [("fsync", 1), ("replace", 1), ("fsync", 2)])
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, rng, monkeypatch,
                                                   fail_at, nth):
        # the forcing file is written first (nth = 1), the vorticity second
        old = self._state(rng)
        p = str(tmp_path / "state.ebv")
        save_state(old, p)
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        new = step(old, 0.01)
        real, calls = getattr(os, fail_at), []

        def failing(*args):
            calls.append(args)
            if len(calls) == nth:
                raise OSError("disk full")
            return real(*args)

        monkeypatch.setattr(os, fail_at, failing)
        with pytest.raises(OSError, match="disk full"):
            save_state(new, p)
        monkeypatch.undo()

        assert sorted(os.listdir(tmp_path)) == sorted(before)  # no temporary file left
        assert (tmp_path / "state.ebv").read_bytes() == before["state.ebv"]
        if nth == 2:
            # the new forcing file sits next to the old vorticity file
            mixed = r"state\.ebv\.forcing is from time .* but .*state\.ebv from time"
            with pytest.raises(ValueError, match=mixed):
                load_state(p)
            return
        assert (tmp_path / "state.ebv.forcing").read_bytes() == before["state.ebv.forcing"]
        back = load_state(p)
        assert np.array_equal(back.omega.coeffs, old.omega.coeffs)
        assert back.time == old.time

    def test_write_atomic_that_fails_partway_keeps_the_previous_file(self, tmp_path):
        # the first chunk reaches the temporary file before the second one fails
        p = tmp_path / "out.txt"
        write_atomic(str(p), b"old\n")
        with pytest.raises(TypeError):
            write_atomic(str(p), b"new\n", "not bytes")
        assert os.listdir(tmp_path) == ["out.txt"] and p.read_bytes() == b"old\n"

    @pytest.mark.parametrize("where", ["missing-directory", "onto-a-directory"])
    def test_failed_save_names_the_target(self, tmp_path, rng, where):
        # the error names the file that was asked for, not the temporary file, and
        # no temporary file is left
        if where == "missing-directory":
            p, target = tmp_path / "nodir" / "x.ebv", tmp_path / "nodir" / "x.ebv.forcing"
        else:
            p = target = tmp_path / "x.ebv"
            p.mkdir()  # the forcing file is written, the vorticity file cannot replace a directory
        with pytest.raises(OSError) as info:
            save_state(self._state(rng), str(p))
        assert info.value.filename == str(target)
        assert ".tmp" not in str(info.value)
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]

    @pytest.mark.parametrize("observe_every", [1, 7, 40])
    def test_restart_is_bit_identical(self, tmp_path, rng, observe_every):
        # run to T in one go vs checkpoint at T/2 and resume: same bytes,
        # signed zeros included, however few of the steps publish a state
        st = self._state(rng)
        p = str(tmp_path / "mid.ebv")

        direct = st
        for _ in range(40):
            direct = step(direct, 0.01)

        first, _ = simulate(st, st.time + 0.2, 0.01, observe_every=observe_every)
        save_state(first, p)
        second, _ = simulate(load_state(p), first.time + 0.2, 0.01, observe_every=observe_every)

        assert second.time == direct.time
        assert second.omega.coeffs.tobytes() == direct.omega.coeffs.tobytes()


# payload values that a float round trip could lose: signed zeros, subnormals
# and the extremes of the finite range
_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -2.2e-308, 1.7e308, -1.7e308])
_POSITIVE = hs.floats(min_value=5e-324, max_value=1.7e308)  # subnormals included


def _payload(shape, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    raw = rng.standard_normal(shape + (2,)) * 10.0 ** rng.integers(-300, 300, shape + (2,))
    special = rng.random(raw.shape) < 0.25
    raw[special] = rng.choice(_SPECIAL, int(special.sum()))
    return raw.view(complex)[..., 0]


class TestRoundTripProperties:
    """Write then read returns every byte: header floats and payload alike."""

    @given(half=hs.integers(2, 32), alpha=_POSITIVE, gamma=_POSITIVE,
           time=hs.floats(allow_nan=False, allow_infinity=False), seed=hs.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scalar(self, half, alpha, gamma, time, seed):
        grid, params = make_grid(2 * half), ModelParams(alpha=alpha, gamma=gamma)
        field = SpectralField(grid, _payload((grid.n, grid.n), seed))
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "f.ebv")
            write_scalar(p, field, params, time)
            back, back_params, back_time = read_scalar(p)
            q = os.path.join(d, "g.ebv")
            write_scalar(q, back, back_params, back_time)
            assert open(q, "rb").read() == open(p, "rb").read()
        assert back.coeffs.tobytes() == field.coeffs.tobytes()
        assert struct.pack("<ddd", back_params.alpha, back_params.gamma, back_time) == \
            struct.pack("<ddd", alpha, gamma, time)
