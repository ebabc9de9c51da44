"""Smoke tests for the benchmark, at tiny sizes.

Not collected by a plain `pytest` run of the repository; run them with

    python3 -m pytest -q bench/smoke_checks.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from spans import Span, TraceError, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_self_time_subtracts_merged_clipped_children():
    spans = [
        Span("cli", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 3.0, 6.0, 0, 1),     # overlaps a: together they cover 1..6
        Span("c", 2.0, 3.0, 1, 1),     # child of a
        Span("d", 8.0, 12.0, 0, 1),    # clipped to its parent: covers 8..10
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_tracer_records_nested_spans_and_restores_names():
    import fmapkit.cli as cli
    from fmapkit import synth
    from fmapkit.spectral import build_laplacian, eigenbasis

    original = cli.eigenbasis
    tracer = Tracer()
    lap = build_laplacian(synth.bumpy_sphere(1))
    with tracer.installed(op=7):
        with tracer.span("cli"):
            cli.eigenbasis(lap, 5)
            cli.eigenbasis(lap, 5)
    assert cli.eigenbasis is original is eigenbasis
    per_op = tracer.per_op()[7]
    assert per_op["spectral.eigenbasis"] > 0
    total = sum(s.end - s.start for s in tracer.spans if s.name == "cli")
    assert sum(per_op.values()) == pytest.approx(total)
    assert tracer.counts[(7, "spectral.eigenbasis_calls")] == 2
    assert tracer.counts[(7, "spectral.eigenbasis_repeats")] == 1


def test_missing_wrapped_name_fails_loudly():
    with pytest.raises(TraceError, match="no_such_function"):
        Tracer({"fmapkit.cli": {"no_such_function": ("spectral.eigenbasis", None)}})


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out.stdout
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace and workload == "eval-2562":
        assert all(v == 0 for k, v in values.items()
                   if k.startswith(("spectral.", "refine.")))
    if trace and workload == "session-642":
        assert all(v == 0 for k, v in values.items() if k.startswith("refine."))
        assert values["diagnostics.oracle_s"] > 0
    if not trace:
        assert all(v > 0 for k, v in values.items() if k != "geo_err_mean")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    out = run_bench(tmp_path, "session-642", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
