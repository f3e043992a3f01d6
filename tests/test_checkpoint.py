import struct

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

    def test_subset_read_skips_records_and_still_checks_the_file(self, tmp_path):
        path = tmp_path / "full.bin"
        arrays = {"w": np.arange(6.0).reshape(2, 3), "skip": np.ones(5), "b": np.array(2.0)}
        save_arrays(path, arrays, {"epoch": 3})
        kept, meta = load_arrays(path, keep=lambda name: name != "skip")
        assert meta == {"epoch": 3} and list(kept) == ["w", "b"]
        for name in kept:
            np.testing.assert_array_equal(kept[name], arrays[name])
        blob = path.read_bytes()
        # cut inside the skipped record's data, then pad after the last record
        (tmp_path / "cut.bin").write_bytes(blob[:blob.index(b"skip") + 30])
        with pytest.raises(CheckpointError, match="truncated checkpoint: data of 'skip'"):
            load_arrays(tmp_path / "cut.bin", keep=lambda name: name != "skip")
        (tmp_path / "pad.bin").write_bytes(blob + b"xx")
        with pytest.raises(CheckpointError, match="trailing"):
            load_arrays(tmp_path / "pad.bin", keep=lambda name: name == "skip")

    @pytest.mark.parametrize("shape", [(0xFFFFFFFF, 0xFFFFFFFF), (2, 4)],
                             ids=["overflowing", "one_element_too_many"])
    @pytest.mark.parametrize("keep", [None, lambda name: False], ids=["kept", "skipped"])
    def test_corrupt_shape_is_a_checkpoint_error(self, tmp_path, shape, keep):
        # the claimed data is checked against the file size before any read,
        # so no test here asks for the claimed allocation
        path = tmp_path / "ckpt.bin"
        save_arrays(path, {"w": np.ones((2, 3))}, {})
        blob = bytearray(path.read_bytes())
        at = blob.index(b"w") + 2  # past the name and its ndim byte
        blob[at:at + 8] = struct.pack("<II", *shape)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="truncated checkpoint: data of 'w'"):
            load_arrays(path, keep=keep)

    def test_undecodable_record_name_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_arrays(path, {"w": np.ones(2)}, {})
        blob = bytearray(path.read_bytes())
        blob[blob.index(b"w")] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="corrupt record name at byte offset 20"):
            load_arrays(path)
