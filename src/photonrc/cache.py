"""Binary cache files for per-frame feature rows and reservoir state rows, and
the one integrity rule of every binary artifact and every JSON document.

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

:func:`read_cache` loads a whole cache; :class:`CacheRows` reads selected
rows of one from disk a chunk at a time, so a stage that streams a cache
never holds all of it.  :func:`row_chunks` cuts an array and a cache into
the same chunks, and gives each chunk's first row.

:func:`read_json` reads every JSON document (the manifest, both specs and
``pipeline.json``) and :func:`write_json` writes all but the manifest, whose
unsorted bytes feed the manifest hash in every stage digest.  Every loader
reads each field it uses through :func:`json_typed`, the one rule that gives
a JSON value its Python type; :func:`json_field` applies it to a field of an
object and names a missing one by its path, such as ``sequences[3].subject``.
"""

import json
import os
import struct

import numpy as np

from .errors import ParseError, SchemaError

MAGIC = b"RCFEAT01"
VERSION = 1

_HEAD = struct.Struct("<8sIQQI")

# Rows per chunk of a CacheRows read.  Projecting 2,895 x 9,576 HOG rows
# onto 2,000 components took 1.13 s in chunks of 512 rows, 1.08 s in chunks
# of 1,024 and 1.04 s as one product over every row (medians of 10, 2 BLAS
# threads, 2-vCPU Xeon), with the same bytes.  A 1,024-row HOG chunk is
# 39 MB in float32.
CHUNK_ROWS = 1024


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
        self._fh.write(rows)  # the array's own buffer, not a bytes copy of it
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


def read_checked_header(fh, path, head, magic, body_size):
    """Unpack struct ``head`` from the open file ``fh``; returns its fields after
    ``magic``, the first, and leaves ``fh`` just past the header.  The one
    integrity rule of every binary artifact: unless the file is exactly
    ``head.size + body_size(*fields)`` bytes, ParseError says ``truncated`` or
    ``trailing bytes`` and the size expected."""
    raw = fh.read(head.size)
    if len(raw) < head.size:
        raise ParseError(f"{path}: truncated: {len(raw)} bytes, expected {head.size} bytes or more")
    found, *fields = head.unpack(raw)
    if found != magic:
        raise ParseError(f"{path}: bad magic {found!r}")
    size, expected = os.fstat(fh.fileno()).st_size, head.size + body_size(*fields)
    if size != expected:
        what = "truncated" if size < expected else "trailing bytes"
        raise ParseError(f"{path}: {what}: {size} bytes, expected {expected} bytes")
    return tuple(fields)


def write_json(path, doc):
    """Write ``doc`` to ``path`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path, build):
    """``build(doc)`` of the JSON object at ``path``.  ParseError unless the file
    is UTF-8 JSON, SchemaError unless it holds an object that ``build`` converts
    without SchemaError, KeyError, TypeError, ValueError or OverflowError; both
    name ``path``, so ``build``'s own messages leave it out."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object, found {type(doc).__name__}")
    try:
        return build(doc)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    except KeyError as exc:
        raise SchemaError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: malformed field: {exc}") from None


def json_field(doc, key, kind, prefix=""):
    """:func:`json_typed` of ``doc[key]``, named by its path ``prefix + key``;
    a SchemaError names that path if the JSON object ``doc`` lacks the field."""
    name = prefix + key
    if key not in doc:
        raise SchemaError(f"missing field '{name}'")
    return json_typed(doc[key], kind, name)


def json_typed(value, kind, name):
    """``value`` of the field ``name`` if its JSON type is ``kind``, else
    SchemaError: the one typing rule of every JSON field.  ``int`` is an
    integer, never a boolean; ``float`` an integer or a fraction, never a
    boolean, returned as a float; ``bool``, ``str``, ``list`` and ``dict`` a
    JSON boolean, string, array and object.  Where ``int()`` would floor a
    fraction, ``float()`` read a numeric string and ``bool()`` any string as
    true, this refuses."""
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        what = {int: "an integer", bool: "a boolean", float: "a number", str: "a string",
                list: "an array", dict: "an object"}[kind]
        raise SchemaError(f"{name} must be {what}, found {value!r}")
    return value


def _read_header(fh, path):
    """Parse the header of the open cache ``fh``, leaving it at the first value."""
    version, count, dim, layout_len = read_checked_header(
        fh, path, _HEAD, MAGIC, lambda version, count, dim, n: 8 * n + 4 * count * dim
    )
    if version != VERSION:
        raise ParseError(f"{path}: unsupported cache version {version}")
    layout = struct.unpack(f"<{layout_len}Q", fh.read(8 * layout_len))
    return count, dim, layout


def read_cache_header(path):
    """(frame_count, feature_dim, layout) of a cache exactly the size its header announces."""
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


def chunk_stops(n, size=None):
    """Stops of the chunks that ``n`` rows (or columns) are cut into:
    ``size`` each (CHUNK_ROWS by default), and a last chunk of from half to
    one and a half times that many.

    BLAS multiplies a few rows by other code paths (GEMV for one row) than a
    whole array's, which round differently; a short last chunk joins the one
    before, so a product taken chunk by chunk keeps the rounding of one
    product over every row.
    """
    size = CHUNK_ROWS if size is None else size
    stops = list(range(size, n, size))
    if stops and n - stops[-1] < size // 2:
        stops.pop()
    return stops + [n]


def row_chunks(rows):
    """``(first_row, block)`` for the rows of an array or of a :class:`CacheRows`,
    in order, as blocks cut by :func:`chunk_stops` (one empty block for no
    rows): views of an array, float32 reads of a cache."""
    stops = chunk_stops(rows.shape[0])
    firsts = [0] + stops[:-1]
    if isinstance(rows, CacheRows):
        blocks = rows.read_blocks(firsts, stops)
    else:
        blocks = (rows[first:stop] for first, stop in zip(firsts, stops))
    for first in firsts:  # no zip, whose reused result tuple would keep a block alive
        yield first, next(blocks)


class CacheRows:
    """Rows ``rows`` of the cache at ``path`` (None: every row), read a chunk at a time.

    Construction parses the header and rejects what :func:`read_cache`
    rejects, so a torn or overlong cache never passes.  ``np.asarray`` of
    the object reads the selected rows, in the order given, into one new
    array equal to ``read_cache(path)[0][rows]``; a ``dtype`` there makes
    that array in the wanted type without a float32 copy of the whole.
    :func:`row_chunks` yields the same rows as float32 blocks, and indexing
    selects some of them without reading any.  Reads are plain
    file reads, not a memory map, so the file's pages never count towards
    the process's resident memory.
    """

    def __init__(self, path, rows=None):
        with open(path, "rb") as fh:
            count, dim, _ = _read_header(fh, path)
            self._offset = fh.tell()
        self.path = path
        if rows is None:
            rows = np.arange(count)
        self._rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        if self._rows.size and not (0 <= self._rows.min() and self._rows.max() < count):
            raise IndexError(f"{path}: row index out of range for {count} rows")
        self.shape = (self._rows.size, dim)

    def __getitem__(self, index):
        """The selected rows at positions ``index`` (an index array or a
        slice), as a CacheRows that reads them from the same file."""
        return type(self)(self.path, self._rows[index])

    def read_blocks(self, firsts, stops):
        """Yield the selected rows at positions ``firsts[i]:stops[i]`` for
        each ``i``, as float32 blocks, over one open file."""
        with open(self.path, "rb") as fh:
            for first, stop in zip(firsts, stops):
                yield self._read(fh, self._rows[first:stop])

    def _read(self, fh, rows):
        dim = self.shape[1]
        out = np.empty((rows.size, dim), dtype="<f4")
        if rows.size == 0:
            return out
        # one read per run of consecutive row indices
        cuts = (np.flatnonzero(np.diff(rows) != 1) + 1).tolist()
        for start, stop in zip([0] + cuts, cuts + [rows.size]):
            fh.seek(self._offset + 4 * dim * int(rows[start]))
            if fh.readinto(out[start:stop]) != 4 * dim * (stop - start):
                raise ParseError(f"{self.path}: cache cut short while being read")
        return out

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("reading rows from a cache file always makes a new array")
        out = np.empty(self.shape, dtype=np.float32 if dtype is None else dtype)
        for first, chunk in row_chunks(self):
            out[first : first + chunk.shape[0]] = chunk
        return out
