"""Binary cache files for per-frame feature rows and reservoir state rows.

Layout (all little-endian):

    offset  size  field
    0       8     magic  b"RCFEAT01"
    8       4     uint32 version (currently 1)
    12      8     uint64 frame_count (rows)
    20      8     uint64 feature_dim (columns)
    28      4     uint32 layout length L
    32      8*L   uint64 layout entries (e.g. HOG block layout, or (dim,))
    ...           float32 values, row-major, frame_count * feature_dim

The same container stores HOG descriptors, PCA-projected features, and
reservoir state trajectories; only the layout tuple differs.
"""

import os
import struct

import numpy as np

from .errors import ParseError

MAGIC = b"RCFEAT01"
VERSION = 1

_HEAD = struct.Struct("<8sIQQI")


class CacheWriter:
    """Incremental cache writer; keeps memory bounded for long frame streams.

    The row count in the header is patched when the writer closes, so a
    crashed run leaves a header announcing 0 rows, which no reader accepts
    once values follow it.
    """

    def __init__(self, path, feature_dim, layout=None):
        if layout is None:
            layout = (int(feature_dim),)
        self._dim = int(feature_dim)
        self._layout = tuple(int(v) for v in layout)
        self._count = 0
        self._fh = open(path, "wb")
        self._fh.write(_HEAD.pack(MAGIC, VERSION, 0, self._dim, len(self._layout)))
        self._fh.write(struct.pack(f"<{len(self._layout)}Q", *self._layout))

    def append(self, rows):
        rows = np.ascontiguousarray(rows, dtype="<f4")
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.ndim != 2 or rows.shape[1] != self._dim:
            raise ValueError(f"expected rows of width {self._dim}")
        self._fh.write(rows.tobytes())
        self._count += rows.shape[0]

    def close(self):
        if self._fh is None:
            return
        self._fh.seek(0)
        self._fh.write(_HEAD.pack(MAGIC, VERSION, self._count, self._dim, len(self._layout)))
        self._fh.close()
        self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self._fh.close()
            self._fh = None


def _read_header(fh, path):
    """Parse the header of the open cache ``fh``, leaving it at the first value."""
    head = fh.read(_HEAD.size)
    if len(head) < _HEAD.size:
        raise ParseError(f"{path}: truncated cache header")
    magic, version, count, dim, layout_len = _HEAD.unpack(head)
    if magic != MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise ParseError(f"{path}: unsupported cache version {version}")
    raw = fh.read(8 * layout_len)
    if len(raw) < 8 * layout_len:
        raise ParseError(f"{path}: truncated layout")
    layout = struct.unpack(f"<{layout_len}Q", raw)
    size = os.fstat(fh.fileno()).st_size
    expected = fh.tell() + 4 * count * dim
    if size != expected:
        raise ParseError(
            f"{path}: {size} bytes, expected {expected} bytes for {count} x {dim} values"
        )
    return count, dim, layout


def read_cache_header(path):
    """Return (frame_count, feature_dim, layout) without loading the data.

    Raises ParseError unless the file's size is exactly what the header
    announces: a file cut short or carrying trailing bytes is rejected.
    """
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def read_cache(path):
    """Load a cache; returns (values float32 array (rows, dim), layout tuple).

    Rejects what :func:`read_cache_header` rejects.
    """
    with open(path, "rb") as fh:
        count, dim, layout = _read_header(fh, path)
        data = np.fromfile(fh, dtype="<f4", count=count * dim)
    return data.reshape(count, dim), layout
