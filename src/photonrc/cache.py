"""The one binary container of every artifact photonrc writes (the HOG,
feature and state caches, the PCA model and the readout), and the one
integrity rule of every binary artifact and every JSON document.

Layout (all little-endian):

    offset  size  field
    0       8     magic  b"PHOTONRC"
    8       4     uint32 version (currently 2)
    12      4     value type, a NumPy type string padded with NULs: "<f4" or "<f8"
    16      8     uint64 rows
    24      8     uint64 cols
    32      8     uint64 meta length L
    40      8*L   float64 meta values
    ...           rows * cols values of the value type, row-major

A row cache holds float32 rows with its layout as the meta: the HOG block
layout, or ``(cols,)``.  The PCA model and the readout hold float64 arrays
and put the rest of their model in the meta (see :mod:`photonrc.pca` and
:mod:`photonrc.readout`).  :func:`_header` packs every header and
:func:`_read_header` parses every one, for :func:`read_cache_header` and
every loader: unless a file is exactly the size its header announces, it
raises ParseError.  A loader also checks the kind, the value type and the
meta length it expects (:func:`read_container`, :class:`CacheRows`).  The
three per-kind formats of version 1 (magics ``RCFEAT01``, ``RCPCA001`` and
``RCOUT001``) are refused as version 1.

:func:`read_cache` loads a whole cache; :class:`CacheRows` reads selected
rows of one from disk a chunk at a time, so a stage that streams a cache
never holds all of it.  :func:`row_chunks` cuts an array and a cache into
the same blocks of a size its caller picks, and gives each block's first
row: each stage reads its rows in the blocks it computes on.

:func:`read_json` reads every JSON document (the manifest, both specs and
``pipeline.json``) and :func:`write_json` writes all but the manifest, whose
unsorted bytes feed the manifest hash in every stage digest.  Every loader
reads each field it uses through :func:`json_typed`, the one rule that gives
a JSON value its Python type; :func:`json_field` applies it to a field of an
object and names a missing one by its path, such as ``sequences[3].subject``.

Every file photonrc writes reaches its name through :func:`replaced`: its
bytes go to a temporary file beside it, renamed over it once they are all
written, so a name holds a whole file or none.
"""

import contextlib
import json
import os
import re
import struct

import numpy as np

from .errors import ParseError, SchemaError

MAGIC = b"PHOTONRC"
VERSION = 2
# the magics of the per-kind formats version 2 replaced
_VERSION_1 = (b"RCFEAT01", b"RCPCA001", b"RCOUT001")
_VALUE_TYPES = ("<f4", "<f8")

# magic, version, value type, rows, cols, meta length
_HEAD = struct.Struct("<8sI4sQQQ")

# Rows per chunk of a row_chunks walk that names no size: the ridge
# readout's sums and its application.  A 1,024-row chunk of 4,096 float32
# readings is 16 MB
CHUNK_ROWS = 1024
# Rows per block of a CacheRows read into one array.  A float64 read of
# 9,576-wide HOG rows thus stages 2.5 MB of float32 beside its output, where a
# CHUNK_ROWS chunk would stage 39 MB
_ARRAY_ROWS = 64


class CacheWriter:
    """Incremental cache writer; keeps memory bounded for long frame streams.

    The rows go to a temporary file (:func:`replaced`), whose header gets
    its row count when the writer closes and which only then takes the name
    ``path``; a writer left by an exception leaves nothing at ``path``.
    """

    def __init__(self, path, feature_dim, layout=None):
        self._dim = int(feature_dim)
        self._layout = (self._dim,) if layout is None else layout
        self._count = 0
        self._file = replaced(path, "wb")
        self._fh = self._file.__enter__()
        self._fh.write(_header("<f4", 0, self._dim, self._layout))

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
        self._fh.write(_header("<f4", self._count, self._dim, self._layout))
        self._fh = None
        self._file.__exit__(None, None, None)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self._file.__exit__(exc_type, exc, tb)


def _header(value_type, rows, cols, meta):
    """The header of a container of ``rows`` x ``cols`` values of ``value_type``
    and the float64 ``meta`` values; the one packer of every header."""
    meta = np.asarray(meta, dtype="<f8")
    head = _HEAD.pack(MAGIC, VERSION, value_type.encode("ascii"), rows, cols, meta.size)
    return head + meta.tobytes()


def _read_header(fh, path, value_type, meta_len):
    """(rows, cols, meta) of the open container ``fh``, left at its first value.

    The one integrity rule of every binary artifact: unless the file is
    exactly the size its header announces, ParseError says ``truncated`` or
    ``trailing bytes`` and the size expected.  The kind check: with
    ``value_type`` set, ParseError unless the values are of that type and,
    with ``meta_len`` set too, the meta holds ``meta_len(rows, cols)`` values.
    """
    raw = fh.read(_HEAD.size)
    if len(raw) < _HEAD.size:
        raise ParseError(f"{path}: truncated: {len(raw)} bytes, expected {_HEAD.size} bytes or more")
    magic, version, found, rows, cols, n_meta = _HEAD.unpack(raw)
    if magic in _VERSION_1:
        version = 1
    elif magic != MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise ParseError(f"{path}: unsupported version {version}, expected {VERSION}")
    found = found.rstrip(b"\0").decode("latin-1")
    if found not in _VALUE_TYPES:
        raise ParseError(f"{path}: unknown value type {found!r}")
    size = os.fstat(fh.fileno()).st_size
    expected = _HEAD.size + 8 * n_meta + np.dtype(found).itemsize * rows * cols
    if size != expected:
        what = "truncated" if size < expected else "trailing bytes"
        raise ParseError(f"{path}: {what}: {size} bytes, expected {expected} bytes")
    if value_type is not None and found != value_type:
        raise ParseError(
            f"{path}: holds {np.dtype(found).name} values, expected {np.dtype(value_type).name}"
        )
    if meta_len is not None and n_meta != meta_len(rows, cols):
        raise ParseError(f"{path}: meta length {n_meta}, expected {meta_len(rows, cols)}")
    return rows, cols, np.fromfile(fh, dtype="<f8", count=n_meta)


def write_container(path, values, meta):
    """Write the 2-D array ``values``, float32 or float64, and the ``meta``
    values to a container at ``path``, with no copy of a C-contiguous
    little-endian ``values``."""
    values = np.ascontiguousarray(values)
    with replaced(path, "wb") as fh:
        fh.write(_header(values.dtype.str, *values.shape, meta))
        fh.write(values)


def read_container(path, value_type, meta_len):
    """(values, meta) of the container at ``path``: its rows x cols array of
    ``value_type`` and its float64 meta, each read into one new array.
    Rejects what :func:`read_cache_header` rejects, and a container of
    another kind: one whose values are not of ``value_type`` or, unless
    ``meta_len`` is None, whose meta does not hold ``meta_len(rows, cols)``
    values."""
    with open(path, "rb") as fh:
        rows, cols, meta = _read_header(fh, path, value_type, meta_len)
        values = np.fromfile(fh, dtype=value_type, count=rows * cols)
    return values.reshape(rows, cols), meta


def read_cache_header(path):
    """(rows, cols, meta) of the container at ``path``, of any kind, if it is
    exactly the size its header announces; the meta of a row cache is its
    layout."""
    with open(path, "rb") as fh:
        return _read_header(fh, path, None, None)


def read_cache(path):
    """Load a row cache; returns (values float32 array (rows, dim), layout tuple).

    Rejects what :func:`read_container` rejects.
    """
    values, layout = read_container(path, "<f4", None)
    return values, tuple(map(int, layout))


# the name of a replaced() block's temporary file: its target's name, ".tmp"
# and the writer's process id.  Such a file exists while its block runs, and
# after it only if its process was killed
_TEMPORARY = re.compile(r".+\.tmp\d+")


@contextlib.contextmanager
def replaced(path, mode="w"):
    """Open a file to write ``path``'s new bytes to: UTF-8 text with
    ``newline=""`` for ``mode="w"``, binary for ``"wb"``.  The file is a
    temporary one beside ``path``, renamed over it when the block exits, so
    ``path`` holds its old bytes or all the new ones; if the block raises,
    the temporary file is removed.  Every file photonrc writes reaches its
    name through here.  Another ``path`` temporary file whose process no
    longer runs, which a killed write left, is removed first."""
    tmp = f"{path}.tmp{os.getpid()}"
    fh = open(tmp, mode) if "b" in mode else open(tmp, mode, encoding="utf-8", newline="")
    try:
        with fh:
            _remove_dead_temporaries(path)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _remove_dead_temporaries(path):
    """Remove each ``<path>.tmp<pid>`` whose pid no live process has, where
    ``os.kill(pid, 0)`` raises ProcessLookupError; a running writer's file
    stays, whoever runs it."""
    folder, name = os.path.split(os.fspath(path))
    for entry in os.listdir(folder or "."):
        written = re.fullmatch(re.escape(name) + r"\.tmp(\d+)", entry)
        if written is None:
            continue
        try:
            os.kill(int(written[1]), 0)
        except ProcessLookupError:
            with contextlib.suppress(FileNotFoundError):  # another run removed it first
                os.remove(os.path.join(folder, entry))
        except (PermissionError, OverflowError):  # another user's process; no pid at all
            pass


def write_json(path, doc):
    """Write ``doc`` to ``path`` as indented JSON with sorted keys and a final newline."""
    with replaced(path) as fh:
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


def row_chunks(rows, size=None):
    """``(first_row, block)`` for the rows of an array or of a :class:`CacheRows`,
    in order, as blocks of ``size`` rows (CHUNK_ROWS, read when the walk
    starts, by default) cut by :func:`chunk_stops` (one empty block for no
    rows): views of an array, float32 reads of a cache.  The one walk of
    every stage that streams rows."""
    stops = chunk_stops(rows.shape[0], size)
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
            count, dim, _ = _read_header(fh, path, "<f4", None)
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
        for first, block in row_chunks(self, _ARRAY_ROWS):
            out[first : first + block.shape[0]] = block
        return out
