import numpy as np
import pytest

from corrcolor.checkpoint import CheckpointError, load_arrays, save_arrays


class TestCheckpointRoundTrip:
    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "w": rng.standard_normal((3, 4)),
            "bias": rng.standard_normal(7),
            "scalar": np.array(3.5),
            "cube": rng.standard_normal((2, 2, 2)),
        }
        meta = {"epoch": 4, "note": "smoke"}
        path = tmp_path / "ckpt.bin"
        save_arrays(path, arrays, meta)
        loaded, loaded_meta = load_arrays(path)
        assert loaded_meta == meta
        assert set(loaded) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], np.asarray(arrays[name], dtype=np.float64))

    def test_empty_store(self, tmp_path):
        path = tmp_path / "empty.bin"
        save_arrays(path, {}, {})
        arrays, meta = load_arrays(path)
        assert arrays == {} and meta == {}

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="byte offset 0"):
            load_arrays(path)

    def test_truncated_file_reports_offset(self, tmp_path):
        path = tmp_path / "full.bin"
        save_arrays(path, {"w": np.ones((4, 4))}, {})
        blob = path.read_bytes()
        (tmp_path / "cut.bin").write_bytes(blob[:-10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_arrays(tmp_path / "cut.bin")

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "full.bin"
        save_arrays(path, {"w": np.ones(3)}, {})
        (tmp_path / "pad.bin").write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError, match="trailing"):
            load_arrays(tmp_path / "pad.bin")

    def test_failed_save_leaves_old_file_intact(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_arrays(path, {"w": np.arange(6.0).reshape(2, 3)}, {"epoch": 1})
        before = path.read_bytes()
        with pytest.raises(CheckpointError, match="too long"):
            save_arrays(path, {"w": np.zeros(2), "x" * 0x10000: np.zeros(1)}, {"epoch": 2})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin"]
