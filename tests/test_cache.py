"""Binary feature-cache container: round trips, headers, corruption."""

import struct

import numpy as np
import pytest

from photonrc.cache import MAGIC, CacheWriter, read_cache, read_cache_header
from photonrc.errors import ParseError


def _write_at_once(path, rows, layout=None):
    """Write a whole array through one CacheWriter append."""
    rows = np.asarray(rows)
    with CacheWriter(path, rows.shape[1], layout=layout) as writer:
        writer.append(rows)


def test_write_read_round_trip(tmp_path, rng):
    rows = rng.standard_normal((13, 7)).astype(np.float32)
    path = tmp_path / "cache.rcf"
    _write_at_once(path, rows, layout=(7,))
    back, layout = read_cache(path)
    assert layout == (7,)
    np.testing.assert_array_equal(back, rows)


def test_layout_defaults_to_width(tmp_path, rng):
    rows = rng.standard_normal((3, 5))
    path = tmp_path / "cache.rcf"
    _write_at_once(path, rows)
    _, layout = read_cache(path)
    assert layout == (5,)


def test_multi_entry_layout_round_trips(tmp_path, rng):
    rows = rng.standard_normal((2, 9576))
    path = tmp_path / "hog.rcf"
    _write_at_once(path, rows, layout=(19, 14, 4, 9))
    count, dim, layout = read_cache_header(path)
    assert (count, dim) == (2, 9576)
    assert layout == (19, 14, 4, 9)


def test_values_stored_as_float32(tmp_path):
    rows = np.array([[1.0 / 3.0]])
    path = tmp_path / "c.rcf"
    _write_at_once(path, rows)
    back, _ = read_cache(path)
    assert back.dtype == np.float32
    assert back[0, 0] == np.float32(1.0 / 3.0)


def test_incremental_writer_matches_bulk(tmp_path, rng):
    rows = rng.standard_normal((10, 4))
    bulk = tmp_path / "bulk.rcf"
    streamed = tmp_path / "streamed.rcf"
    _write_at_once(bulk, rows)
    with CacheWriter(streamed, 4) as writer:
        writer.append(rows[:3])
        writer.append(rows[3])  # single row, 1-D
        writer.append(rows[4:])
    assert bulk.read_bytes() == streamed.read_bytes()


def test_writer_patches_row_count_on_close(tmp_path, rng):
    path = tmp_path / "c.rcf"
    writer = CacheWriter(path, 2)
    writer.append(rng.standard_normal((5, 2)))
    writer.close()
    count, dim, _ = read_cache_header(path)
    assert (count, dim) == (5, 2)
    writer.close()  # idempotent


def test_writer_rejects_wrong_width(tmp_path):
    with CacheWriter(tmp_path / "c.rcf", 3) as writer:
        with pytest.raises(ValueError):
            writer.append(np.zeros((2, 4)))


def test_zero_rows_is_legal(tmp_path):
    path = tmp_path / "empty.rcf"
    with CacheWriter(path, 6):
        pass
    back, layout = read_cache(path)
    assert back.shape == (0, 6)
    assert layout == (6,)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.rcf"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 24)
    with pytest.raises(ParseError, match="magic"):
        read_cache_header(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "short.rcf"
    path.write_bytes(MAGIC)
    with pytest.raises(ParseError, match="truncated"):
        read_cache_header(path)


def test_truncated_body_rejected(tmp_path, rng):
    path = tmp_path / "cut.rcf"
    _write_at_once(path, rng.standard_normal((4, 4)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ParseError, match="expected"):
        read_cache(path)


def test_unsupported_version_rejected(tmp_path):
    head = struct.Struct("<8sIQQI").pack(MAGIC, 99, 0, 1, 1)
    path = tmp_path / "v99.rcf"
    path.write_bytes(head + struct.pack("<Q", 1))
    with pytest.raises(ParseError, match="version"):
        read_cache_header(path)
