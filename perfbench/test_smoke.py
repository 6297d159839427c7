"""Smoke test of the benchmark itself on a tiny corpus.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402

sys.path.insert(0, os.path.join(run.ROOT, "src"))

with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)


def _tiny(workload, trace, tamper=None):
    return run.benchmark(workload, seed=3, seconds=0.0, trace=trace, size="tiny", tamper=tamper)[0]


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    record = _tiny(workload, trace)
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in record["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in record["metrics"].values())
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] >= 1


@pytest.mark.parametrize("workload", ["desk_cold", "long_stream"])
def test_per_layer_figures_describe_one_timed_run(workload):
    record = _tiny(workload, True)
    frames = record["corpus"]["frames"]
    metrics = {name: m["value"] for name, m in record["metrics"].items()}
    # set-up runs and warm reruns would add frames, steps and train rows
    assert metrics["reservoir.steps"] == frames
    assert metrics["hog.frames"] == (frames if workload == "desk_cold" else 0)
    assert 0 < metrics["readout.train_rows"] < frames
    assert metrics["cache.hit_ratio"] == (0.0 if workload == "desk_cold" else 0.5)


def _flip_last_byte(path):
    with open(path, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last[0] ^ 0xFF]))


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_corrupted_state_cache_fails_a_check(workload):
    def corrupt(out_dir, run):
        _flip_last_byte(os.path.join(out_dir, run["artifacts"]["states"]))

    record = _tiny(workload, False, tamper=corrupt)
    assert record["failed"] >= 1
    assert any("file_digests" in what for what in record["failures"])


def test_a_wrapped_name_that_is_gone_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracing.WRAPS, "photonrc.pipeline", {"no_such_stage": ("hog", None)})
    with pytest.raises(tracing.TraceError, match="no_such_stage"):
        tracing.Tracer().install()


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        CONTRACT["command"] + ["--workload", "desk_cold", "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
