import os

import numpy as np
import pytest

from alignrag.errors import CheckpointError
from alignrag.serialization import MAGIC, read_container, write_container


def pipe_of(data: bytes) -> int:
    """Read end of a pipe that holds ``data`` and then EOF (data fits the pipe buffer)."""
    r, w = os.pipe()
    os.write(w, data)
    os.close(w)
    return r


@pytest.fixture
def arrays(rng):
    return {
        "beta_matrix": rng.normal(size=(3, 4)),
        "alpha_vector": rng.normal(size=5),
        "scalar": np.array(2.5),
    }


class TestRoundTrip:
    def test_header_and_arrays_survive(self, tmp_path, arrays):
        path = tmp_path / "c.bin"
        write_container(path, "index", {"note": "hello", "n": 7}, arrays)
        header, loaded = read_container(path, "index")
        assert header["note"] == "hello"
        assert header["n"] == 7
        assert header["kind"] == "index"
        assert set(loaded) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], arrays[name])
            assert loaded[name].dtype == np.float64

    def test_loaded_arrays_are_writable_aligned_views(self, tmp_path, arrays):
        path = tmp_path / "c.bin"
        write_container(path, "index", {}, arrays)
        _, loaded = read_container(path, "index")
        for arr in loaded.values():
            assert arr.flags.c_contiguous and arr.flags.aligned and arr.flags.writeable
        loaded["beta_matrix"][0, 0] += 1.0  # a write stays in its own array
        np.testing.assert_array_equal(loaded["alpha_vector"], arrays["alpha_vector"])
        np.testing.assert_array_equal(loaded["beta_matrix"][1:], arrays["beta_matrix"][1:])

    def test_reads_from_a_pipe(self, tmp_path, arrays):
        path = tmp_path / "c.bin"
        write_container(path, "index", {"n": 7}, arrays)
        header, loaded = read_container(pipe_of(path.read_bytes()), "index")
        assert header["n"] == 7
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], arrays[name])

    def test_non_contiguous_input_is_written_in_c_order(self, tmp_path, arrays):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_container(p1, "index", {}, arrays)
        fortran = {**arrays, "beta_matrix": np.asfortranarray(arrays["beta_matrix"])}
        write_container(p2, "index", {}, fortran)
        assert p1.read_bytes() == p2.read_bytes()

    def test_write_is_deterministic(self, tmp_path, arrays):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_container(p1, "index", {"n": 1}, arrays)
        write_container(p2, "index", {"n": 1}, arrays)
        assert p1.read_bytes() == p2.read_bytes()

    def test_key_insertion_order_does_not_matter(self, tmp_path, arrays):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_container(p1, "index", {"x": 1, "y": 2}, arrays)
        write_container(p2, "index", {"y": 2, "x": 1}, dict(reversed(arrays.items())))
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_leads_the_file(self, tmp_path, arrays):
        path = tmp_path / "c.bin"
        write_container(path, "index", {}, arrays)
        assert path.read_bytes()[:4] == MAGIC


class TestRejection:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            read_container(path, "index")

    def test_wrong_kind(self, tmp_path, arrays):
        path = tmp_path / "c.bin"
        write_container(path, "index", {}, arrays)
        with pytest.raises(CheckpointError, match="kind"):
            read_container(path, "checkpoint")

    def test_unsupported_version(self, tmp_path, arrays):
        path = tmp_path / "c.bin"
        write_container(path, "index", {}, arrays)
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # bump the little-endian version field
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            read_container(path, "index")

    @pytest.mark.parametrize("through_pipe", [False, True], ids=["file", "pipe"])
    @pytest.mark.parametrize("cut, extra", [(8, b""), (0, b"\x00" * 8)], ids=["truncated", "trailing"])
    def test_payload_size_must_match_the_manifest(self, tmp_path, arrays, through_pipe, cut, extra):
        path = tmp_path / "c.bin"
        write_container(path, "index", {}, arrays)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - cut] + extra)
        source = pipe_of(path.read_bytes()) if through_pipe else path
        with pytest.raises(CheckpointError, match="payload bytes"):
            read_container(source, "index")
