"""The binary container: round trips, headers, corruption, kinds; the JSON rule."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from photonrc import cache
from photonrc.cache import (
    MAGIC, CacheRows, CacheWriter, chunk_stops, read_cache, read_cache_header, read_container,
    replaced, row_chunks, write_container, write_json,
)
from photonrc.errors import ParseError, SchemaError


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
    assert layout.tolist() == [19, 14, 4, 9]
    assert read_cache(path)[1] == (19, 14, 4, 9)


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
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)  # as long as a header
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


def test_trailing_bytes_rejected(tmp_path, rng):
    path = tmp_path / "long.rcf"
    _write_at_once(path, rng.standard_normal((4, 4)))
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(ParseError, match="expected"):
        read_cache_header(path)
    with pytest.raises(ParseError, match="expected"):
        read_cache(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "v99.rcf"
    head = cache._header("<f4", 0, 1, (1,))
    path.write_bytes(head[:8] + (99).to_bytes(4, "little") + head[12:])
    with pytest.raises(ParseError, match="version 99"):
        read_cache_header(path)


def test_unknown_value_type_rejected(tmp_path):
    path = tmp_path / "i8.rcf"
    path.write_bytes(cache._header("<i8", 1, 1, ()) + b"\x00" * 8)
    with pytest.raises(ParseError, match="unknown value type '<i8'"):
        read_cache_header(path)


@pytest.mark.parametrize("meta", [(), (0.25,), (1.0, 2.0, -3.5)])
def test_container_round_trip_keeps_values_and_meta_bit_equal(tmp_path, rng, meta):
    values = rng.standard_normal((3, 4))
    path = tmp_path / "model.bin"
    write_container(path, values, meta)
    back, back_meta = read_container(path, "<f8", lambda rows, cols: len(meta))
    assert back.tobytes() == values.tobytes() and back_meta.tolist() == list(meta)
    assert path.stat().st_size == 40 + 8 * len(meta) + values.nbytes


def test_a_container_of_another_kind_is_named(tmp_path, rng):
    # the value type and the meta length carry the kind check
    path = tmp_path / "model.bin"
    write_container(path, rng.standard_normal((3, 4)), (0.5,))
    named = re.escape(str(path))
    with pytest.raises(ParseError, match=f"{named}: holds float64 values, expected float32"):
        read_cache(path)
    with pytest.raises(ParseError, match="holds float64 values, expected float32"):
        CacheRows(path)
    with pytest.raises(ParseError, match=f"{named}: meta length 1, expected 9"):
        read_container(path, "<f8", lambda rows, cols: rows + cols + 2)
    assert read_cache_header(path)[:2] == (3, 4)


@pytest.mark.parametrize("magic", [b"RCFEAT01", b"RCPCA001", b"RCOUT001"])
def test_a_version_1_file_is_named_by_its_version(tmp_path, magic):
    path = tmp_path / "old.bin"
    path.write_bytes(magic + b"\x01" + b"\x00" * 63)
    named = re.escape(str(path))
    with pytest.raises(ParseError, match=f"{named}: unsupported version 1, expected 2"):
        read_cache_header(path)


# ---------------------------------------------------------------------------
# CacheRows: selected rows, read a chunk at a time

def _cache(path, rng, rows=50, dim=6):
    values = rng.standard_normal((rows, dim)).astype(np.float32)
    _write_at_once(path, values)
    return values


@pytest.mark.parametrize(
    "rows",
    [None, "sorted", "strided", "reversed", "empty"],
)
def test_cache_rows_equal_the_whole_cache_indexed(tmp_path, rng, monkeypatch, rows):
    monkeypatch.setattr(cache, "CHUNK_ROWS", 7)
    path = tmp_path / "c.rcf"
    values = _cache(path, rng)
    select = {
        None: None,
        "sorted": np.r_[0:9, 11, 12, 20:41, 49],
        "strided": np.arange(1, 50, 3),
        "reversed": np.arange(49, -1, -2),
        "empty": np.array([], dtype=np.int64),
    }[rows]
    expected = read_cache(path)[0] if select is None else read_cache(path)[0][select]
    got = CacheRows(path, select)
    assert got.shape == expected.shape
    for dtype in (None, np.float64):
        out = np.array(got, dtype=dtype)
        assert out.dtype == (np.float32 if dtype is None else np.float64)
        np.testing.assert_array_equal(out, expected.astype(out.dtype))
    # an array, a column-strided view of equal values and the cache rows
    # yield the same (first_row, block) pairs, cut by chunk_stops
    wide = np.zeros((expected.shape[0], 2 * expected.shape[1]), dtype=np.float32)
    wide[:, ::2] = expected
    stops = chunk_stops(expected.shape[0])
    for source in (expected, wide[:, ::2], got):
        pairs = list(row_chunks(source))
        assert [first for first, _ in pairs] == [0] + stops[:-1]
        assert [b.shape[0] for _, b in pairs] == list(np.diff([0] + stops))
        for first, block in pairs:
            assert block.dtype == np.float32 and block.shape[1] == values.shape[1]
            assert block.tobytes() == expected[first : first + block.shape[0]].tobytes()


@pytest.mark.parametrize(
    "rows, sizes",
    [(14, [7, 7]), (15, [7, 8]), (16, [7, 9]), (17, [7, 7, 3]), (2, [2]), (0, [0])],
)
def test_cache_rows_join_a_short_last_chunk_to_the_one_before(
    tmp_path, rng, monkeypatch, rows, sizes
):
    monkeypatch.setattr(cache, "CHUNK_ROWS", 7)
    path = tmp_path / "c.rcf"
    _cache(path, rng, rows=rows)
    assert [b.shape[0] for _, b in row_chunks(CacheRows(path))] == sizes


def test_cache_rows_make_a_new_array(tmp_path, rng):
    path = tmp_path / "c.rcf"
    _cache(path, rng)
    with pytest.raises(ValueError):
        np.array(CacheRows(path), copy=False)
    with pytest.raises(IndexError):
        CacheRows(path, [0, 50])


@pytest.mark.parametrize("damage", ["truncated", "trailing"])
def test_cache_rows_reject_what_read_cache_rejects(tmp_path, rng, damage):
    path = tmp_path / "c.rcf"
    _cache(path, rng)
    data = path.read_bytes()
    path.write_bytes(data[:-4] if damage == "truncated" else data + b"\x00" * 4)
    with pytest.raises(ParseError) as whole:
        read_cache(path)
    with pytest.raises(ParseError) as rows:
        CacheRows(path, [0, 1])
    assert str(rows.value) == str(whole.value)


# ---------------------------------------------------------------------------
# JSON documents

def _json_calls(path):
    """(enclosing top-level name, attribute) of each json.load or json.dump call in ``path``."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
                and node.func.attr in ("load", "dump")
            ):
                found.append((getattr(top, "name", None), node.func.attr))
    return found


def test_only_cache_reads_and_writes_json():
    # save_manifest keeps its own unsorted writer: its bytes feed the manifest
    # hash in every stage digest.  json.dumps (the digests) is another call.
    calls = {path.name: _json_calls(path) for path in Path(cache.__file__).parent.glob("*.py")}
    assert sorted(calls.pop("cache.py")) == [("read_json", "load"), ("write_json", "dump")]
    assert {name: found for name, found in calls.items() if found} == {
        "dataset.py": [("save_manifest", "dump")]
    }


def _file_writes(path):
    """(enclosing top-level name, call) of each call in ``path`` that writes,
    renames or cuts a file: ``open`` in a mode that is not a read mode
    written out (one holding no ``w``, ``a``, ``x`` or ``+``),
    ``os.replace``, ``os.rename``, ``truncate``, ``tofile``, ``write_bytes``
    and ``write_text``."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func, name = node.func, getattr(top, "name", None)
            if isinstance(func, ast.Name) and func.id == "open":
                modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
                mode = modes[0] if modes else ast.Constant("r")
                if not (isinstance(mode, ast.Constant) and not set("wax+") & set(mode.value)):
                    found.append((name, "open"))
            elif isinstance(func, ast.Attribute) and (
                func.attr in ("truncate", "tofile", "write_bytes", "write_text")
                or (isinstance(func.value, ast.Name) and func.value.id == "os"
                    and func.attr in ("replace", "rename"))
            ):
                found.append((name, func.attr))
    return found


def test_only_cache_packs_a_binary_header():
    # one container format: no other module packs or unpacks bytes with struct
    importers = [
        path.name for path in Path(cache.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "struct" in [getattr(node, "module", None)] + [alias.name for alias in node.names]
    ]
    assert importers == ["cache.py"]


def test_only_replaced_writes_a_file():
    # every file reaches its name whole through cache.replaced: a temporary
    # file beside it, renamed over it
    calls = {path.name: _file_writes(path) for path in Path(cache.__file__).parent.glob("*.py")}
    assert sorted(calls.pop("cache.py")) == [
        ("replaced", "open"), ("replaced", "open"), ("replaced", "replace")
    ]
    assert {name: found for name, found in calls.items() if found} == {}


def test_a_write_that_raises_leaves_the_old_file_and_no_temporary_one(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"a": 1})
    old = path.read_bytes()
    with pytest.raises(KeyboardInterrupt):
        with replaced(path) as fh:
            fh.write("{")
            raise KeyboardInterrupt
    with pytest.raises(ValueError, match="width 3"):
        with CacheWriter(tmp_path / "rows.rcf", 3) as writer:
            writer.append(np.zeros((2, 3)))
            writer.append(np.zeros((2, 4)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]
    assert path.read_bytes() == old


def test_a_write_removes_the_temporary_files_of_dead_writers_only(tmp_path):
    # a killed write's file names an exited process; a running writer's, a live one
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    assert child.wait(timeout=60) == 0
    dead, live = child.pid, os.getppid()
    for name in (f"doc.json.tmp{dead}", f"doc.json.tmp{live}", f"other.json.tmp{dead}",
                 "doc.json.tmpx"):
        (tmp_path / name).write_bytes(b"torn")
    write_json(tmp_path / "doc.json", {"a": 1})
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["doc.json", f"doc.json.tmp{live}", f"other.json.tmp{dead}", "doc.json.tmpx"]
    )
    assert (tmp_path / f"doc.json.tmp{live}").read_bytes() == b"torn"


# the loaders of the four JSON documents; each field they read gets its type
# from cache.json_typed alone
JSON_LOADERS = {
    "dataset.py": "_build_manifest",
    "tuning.py": "load_grid_spec",
    "reservoir.py": "load_reservoir_spec",
    "pipeline.py": "_check_summary",
}


def test_json_loaders_coerce_no_field():
    # int(), float(), str() or bool() of a JSON value would floor a fraction,
    # read a boolean or a numeric string as a number, or any string as true
    root = Path(cache.__file__).parent
    for module, function in JSON_LOADERS.items():
        tree = ast.parse((root / module).read_text(encoding="utf-8"))
        (loader,) = [
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == function
        ]
        coercions = [
            node.func.id for node in ast.walk(loader)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("int", "float", "str", "bool")
        ]
        assert coercions == [], f"{module} {function} calls {coercions}"


# the places that catch a failure: a stage wraps it, a grid trial logs it and
# the CLI maps it to an exit code; each catches errors.FAILURES and no other list
FAILURE_HANDLERS = {"cli.py": "main", "pipeline.py": "_stage", "tuning.py": "_run_stack"}


def test_failure_handlers_catch_only_errors_failures():
    root = Path(cache.__file__).parent
    for module, function in FAILURE_HANDLERS.items():
        tree = ast.parse((root / module).read_text(encoding="utf-8"))
        (handler_scope,) = [
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == function
        ]
        handlers = [
            node for node in ast.walk(handler_scope) if isinstance(node, ast.ExceptHandler)
        ]
        caught = [ast.unparse(node.type) if node.type else "everything" for node in handlers]
        if function == "_stage":
            # a stage error from a nested stage goes through as it is
            passed = [ast.unparse(stmt) for stmt in handlers[0].body]
            assert caught.pop(0) == "PipelineStageError" and passed == ["raise"]
        assert caught and set(caught) == {"FAILURES"}, f"{module} {function} catches {caught}"


def test_one_reuse_site():
    # the reuse rule is applied in one place, run_pipeline's name(), which
    # every stage's artifacts go through
    tree = ast.parse((Path(cache.__file__).parent / "pipeline.py").read_text(encoding="utf-8"))

    def reuse_checks(scope):
        return [
            node for node in ast.walk(scope)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_is_complete"
        ]

    (run,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "run_pipeline"
    ]
    (name,) = [
        node for node in run.body if isinstance(node, ast.FunctionDef) and node.name == "name"
    ]
    assert len(reuse_checks(tree)) == len(reuse_checks(name)) == 1


@pytest.mark.parametrize(
    "value,kind,expected",
    [(3, int, 3), (True, bool, True), (1, float, 1.0), (0.5, float, 0.5), ("a", str, "a"),
     ([1], list, [1]), ({}, dict, {})],
)
def test_json_typed_returns_a_value_of_its_kind(value, kind, expected):
    typed = cache.json_typed(value, kind, "field")
    assert typed == expected and type(typed) is kind


@pytest.mark.parametrize(
    "value,kind",
    [(True, int), (3.0, int), ("3", int), (0, bool), ("false", bool), (True, float),
     ("0.5", float), (None, float), (None, str), (1, str), ("[1]", list), ([], dict)],
)
def test_json_typed_refuses_every_other_json_type(value, kind):
    with pytest.raises(SchemaError, match=f"^field must be an? .*, found {re.escape(repr(value))}$"):
        cache.json_typed(value, kind, "field")


def test_write_json_round_trips_through_read_json(tmp_path):
    path = tmp_path / "doc.json"
    cache.write_json(path, {"b": [1, None], "a": 0.5})
    assert path.read_text() == '{\n  "a": 0.5,\n  "b": [\n    1,\n    null\n  ]\n}\n'
    assert cache.read_json(path, lambda doc: doc) == {"a": 0.5, "b": [1, None]}


@pytest.mark.parametrize(
    "raw",
    [b'{"a": "\xff"}', b'{"a": ', b"[" * 100_000 + b"]" * 100_000],
    ids=["non-utf8", "not-json", "nested-too-deep"],
)
def test_read_json_names_a_file_it_cannot_parse(tmp_path, raw):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=re.escape(str(path))):
        cache.read_json(path, lambda doc: doc)


def _reject(doc):
    raise SchemaError("unsupported prng_family 'mersenne'")


@pytest.mark.parametrize(
    "build,message",
    [
        (_reject, "unsupported prng_family 'mersenne'"),
        (lambda doc: doc["missing"], "missing field 'missing'"),
        (lambda doc: int(doc["b"][1]), "malformed field"),
        (lambda doc: int(float("inf")), "malformed field"),
        (lambda doc: float("x"), "malformed field"),
    ],
    ids=["SchemaError", "KeyError", "TypeError", "OverflowError", "ValueError"],
)
def test_read_json_turns_conversion_errors_into_schema_errors(tmp_path, build, message):
    path = tmp_path / "doc.json"
    cache.write_json(path, {"b": [1, None]})
    with pytest.raises(SchemaError, match=f"{re.escape(str(path))}: {message}"):
        cache.read_json(path, build)
