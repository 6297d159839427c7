"""Span tracing around the calls photonrc's orchestration layers make.

``photonrc.pipeline`` and ``photonrc.tuning`` import the functions of the
lower layers into their own namespaces, so replacing those names there
puts a span around every call a pipeline run or a grid makes into another
module, without touching the package.  Each span records its name, layer,
start, end, parent span, thread, and a work count (rows, frames, bytes).

A name listed in WRAPS that the module no longer has raises
:class:`TraceError` on install, and a traced workload in which an expected
layer recorded no span raises too, so a refactor that moves the stage
bodies shows up as a failure rather than as zeros.
"""

import contextlib
import importlib
import os
import statistics
import threading
import time


class TraceError(RuntimeError):
    pass


def _rows(index):
    return lambda args, result: int(args[index].shape[0])


def _size(index):
    return lambda args, result: os.path.getsize(args[index])


def _nnz(args, result):
    return int(result.weights.nnz)


def _count(index):
    return lambda args, result: len(args[index])


# module -> {attribute: (layer, work count taken from (args, result) or None)}
WRAPS = {
    "photonrc.pipeline": {
        "load_manifest": ("dataset", None),
        "index_frames": ("dataset", None),
        "stream_frames": ("dataset", None),  # per-frame spans, see _wrap_generator
        "hog_descriptor": ("hog", None),
        "fit_pca": ("pca", _rows(0)),
        "transform": ("pca", _rows(1)),
        "run_reservoir": ("reservoir", _rows(1)),
        "encode_targets": ("readout", None),
        "train_ridge": ("readout", _rows(0)),
        "apply_readout": ("readout", _rows(1)),
        "nmse_per_output": ("readout", None),
        "classify_stream": ("classify", _count(1)),
        "confusion": ("classify", None),
        "write_sequence_results": ("classify", None),
        "write_confusion": ("classify", None),
        "score_line": ("classify", None),
        "read_cache": ("cache", _size(0)),
        "read_cache_header": ("cache", None),
        "CacheWriter": ("cache", None),  # see _wrap_writer
        "save_pca_model": ("cache", _size(1)),
        "load_pca_model": ("cache", _size(0)),
        "save_reservoir_spec": ("cache", _size(1)),
        "save_readout_model": ("cache", _size(1)),
        "load_readout_model": ("cache", _size(0)),
    },
    # ReservoirSpec.build, which the pipeline calls, looks this name up here
    "photonrc.reservoir": {
        "generate_matrices": ("reservoir", _nnz),
    },
    "photonrc.tuning": {
        "load_manifest": ("dataset", None),
        "index_frames": ("dataset", None),
        "read_cache": ("cache", _size(0)),
        "run_trial": ("tuning", None),
        "generate_matrices": ("reservoir", _nnz),
        "run_reservoir": ("reservoir", _rows(1)),
        "encode_targets": ("readout", None),
        "train_ridge": ("readout", _rows(0)),
        "apply_readout": ("readout", _rows(1)),
        "nmse_per_output": ("readout", None),
        "classify_stream": ("classify", _count(1)),
        "confusion": ("classify", None),
    },
}

# span fields, in the order each span tuple stores them
FIELDS = ("id", "name", "layer", "start_ns", "end_ns", "parent", "thread", "work")


class Tracer:
    """Collects spans in memory; spans nest per thread.

    A span opened on a worker thread with nothing open on that thread is
    parented to the innermost open span of the thread that installed the
    tracer, which is where the thread pool was started from.
    """

    def __init__(self):
        self.spans = []
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name, layer):
        """Record one span; yields a one-item list the caller may set the work count in."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        with self._id_lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        work = [None]
        start = time.perf_counter_ns()
        try:
            yield work
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                (sid, name, layer, start, end, parent, threading.get_ident(), work[0])
            )

    def _wrap_function(self, fn, name, layer, count):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name, layer) as work:
                result = fn(*args, **kwargs)
                if count is not None:
                    work[0] = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, layer):
        tracer = self
        name = f"{layer}.read_frame"

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                with tracer.span(name, layer):
                    item = next(items, StopIteration)
                if item is StopIteration:
                    return
                yield item

        traced.__wrapped__ = fn
        return traced

    def _wrap_writer(self, cls, layer):
        tracer = self

        class TracedCacheWriter(cls):
            def __init__(self, path, *args, **kwargs):
                self._traced_path = path
                with tracer.span(f"{layer}.CacheWriter.open", layer):
                    super().__init__(path, *args, **kwargs)

            def append(self, rows):
                with tracer.span(f"{layer}.CacheWriter.append", layer):
                    super().append(rows)

            def close(self):
                with tracer.span(f"{layer}.CacheWriter.close", layer) as work:
                    super().close()
                    work[0] = os.path.getsize(self._traced_path)

        return TracedCacheWriter

    def install(self):
        """Replace every name in WRAPS; raises TraceError if one is missing."""
        missing = []
        for module_name, names in WRAPS.items():
            module = importlib.import_module(module_name)
            for attr in names:
                if not hasattr(module, attr):
                    missing.append(f"{module_name}.{attr}")
        if missing:
            raise TraceError(
                "photonrc no longer has " + ", ".join(missing)
                + "; update WRAPS in perfbench/tracing.py"
            )
        for module_name, names in WRAPS.items():
            module = importlib.import_module(module_name)
            for attr, (layer, count) in names.items():
                original = getattr(module, attr)
                if attr == "CacheWriter":
                    wrapped = self._wrap_writer(original, layer)
                elif attr == "stream_frames":
                    wrapped = self._wrap_generator(original, layer)
                else:
                    wrapped = self._wrap_function(original, f"{layer}.{attr}", layer, count)
                setattr(module, attr, wrapped)
                self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


@contextlib.contextmanager
def maybe_span(tracer, name, layer):
    if tracer is None:
        yield [None]
    else:
        with tracer.span(name, layer) as work:
            yield work


# ---------------------------------------------------------------------------
# Per-layer metrics from a list of spans

def _duration(span):
    return (span[4] - span[3]) / 1e9


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_seconds(spans, span):
    """The span's duration minus the time its child spans cover."""
    children = [
        (max(s[3], span[3]), min(s[4], span[4])) for s in spans if s[5] == span[0]
    ]
    return (span[4] - span[3] - _covered(children)) / 1e9


def _pct(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _med(values):
    return statistics.median(values) if values else 0.0


# the stages a pipeline run may reuse, and the call that means "recomputed"
CACHEABLE_STAGES = {
    "hog": "hog.hog_descriptor",
    "pca": "pca.fit_pca",
    "reservoir": "reservoir.run_reservoir",
    "train": "readout.train_ridge",
}


def _descendants(spans, root_id):
    children = {}
    for s in spans:
        children.setdefault(s[5], []).append(s)
    found, todo = [], [root_id]
    while todo:
        for s in children.get(todo.pop(), ()):
            found.append(s)
            todo.append(s[0])
    return found


def split_runs(spans):
    """One span list per ``pipeline.run_pipeline`` span: the run and all it called."""
    return [[run] + _descendants(spans, run[0])
            for run in spans if run[1] == "pipeline.run_pipeline"]


class _Spans:
    """Totals over one list of spans, by span name."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name = {}
        for s in spans:
            self.by_name.setdefault(s[1], []).append(s)

    def durations(self, name):
        return [_duration(s) for s in self.by_name.get(name, ())]

    def total(self, *names):
        return sum(sum(self.durations(n)) for n in names)

    def work(self, *names):
        return sum(s[7] or 0 for n in names for s in self.by_name.get(n, ()))


CACHE_READS = ("cache.read_cache", "cache.read_cache_header",
               "cache.load_pca_model", "cache.load_readout_model")
CACHE_WRITES = ("cache.CacheWriter.open", "cache.CacheWriter.append",
                "cache.CacheWriter.close", "cache.save_pca_model",
                "cache.save_reservoir_spec", "cache.save_readout_model")
CLASSIFY = ("classify.classify_stream", "classify.confusion",
            "classify.write_sequence_results", "classify.write_confusion",
            "classify.score_line")


def layer_metrics(op_spans, warm_runs):
    """Per-layer figures, each a (value, unit) pair, of one operation.

    ``op_spans`` are the spans of the workload's timed operation, which every
    figure but four describes.  ``pipeline.warm_s``, ``cache.read_s``,
    ``cache.bytes_read`` and ``pipeline.self_s`` describe the cache-read path
    of an immediate reuse rerun: each is the median over ``warm_runs``, one
    span list per warm rerun.
    """
    op = _Spans(op_spans)
    warm = [_Spans(run) for run in warm_runs]
    reads = [d * 1e3 for d in op.durations("dataset.read_frame")]
    hogs = [d * 1e3 for d in op.durations("hog.hog_descriptor")]

    runs = split_runs(op_spans)
    reused = 0
    for run in runs:
        called = {s[1] for s in run}
        reused += sum(1 for name in CACHEABLE_STAGES.values() if name not in called)
    stages_run = len(CACHEABLE_STAGES) * len(runs)

    steps = op.work("reservoir.run_reservoir")
    reservoir_s = op.total("reservoir.run_reservoir")
    nnz = [s[7] for s in op.by_name.get("reservoir.generate_matrices", ())]
    return {
        "dataset.read_ms_per_frame": (_med(reads), "ms"),
        "hog.ms_per_frame": (_med(hogs), "ms"),
        "hog.ms_per_frame_p99": (_pct(hogs, 0.99) if hogs else 0.0, "ms"),
        "hog.frames": (len(hogs), "count"),
        "pca.fit_s": (op.total("pca.fit_pca"), "s"),
        "pca.transform_s": (op.total("pca.transform"), "s"),
        "pca.fit_rows": (op.work("pca.fit_pca"), "count"),
        "cache.read_s": (_med([w.total(*CACHE_READS) for w in warm]), "s"),
        "cache.write_s": (op.total(*CACHE_WRITES), "s"),
        "cache.bytes_read": (_med([w.work(*CACHE_READS) for w in warm]), "B"),
        "cache.bytes_written": (op.work(*CACHE_WRITES), "B"),
        "cache.hit_ratio": (reused / stages_run if stages_run else 0.0, "ratio"),
        "reservoir.build_s": (op.total("reservoir.generate_matrices"), "s"),
        "reservoir.run_s": (reservoir_s, "s"),
        "reservoir.us_per_step": (reservoir_s / steps * 1e6 if steps else 0.0, "us"),
        "reservoir.steps": (steps, "count"),
        "reservoir.nnz": (max(nnz) if nnz else 0, "count"),
        "readout.train_s": (op.total("readout.train_ridge"), "s"),
        "readout.apply_s": (op.total("readout.apply_readout"), "s"),
        "readout.train_rows": (op.work("readout.train_ridge"), "count"),
        "classify.s": (op.total(*CLASSIFY), "s"),
        "classify.sequences": (op.work("classify.classify_stream"), "count"),
        "pipeline.warm_s": (_med([_duration(w.spans[0]) for w in warm]), "s"),
        "pipeline.self_s": (_med([self_seconds(w.spans, w.spans[0]) for w in warm]), "s"),
    }
