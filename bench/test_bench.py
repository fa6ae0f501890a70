"""Tests of the benchmark itself: a tiny-size run of every workload in both
modes, detection of a corrupted artifact value, and the tracer's span
arithmetic."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# end-to-end metrics the report prints besides the ones the harness reads
REPORT_ONLY = {"error_rate": "ratio", "classify.mislabeled_cells": "count",
               "wall.op_p50_ms": "ms", "wall.op_p90_ms": "ms",
               "wall.items_per_s": "items/s", "wall.host_speed": "ratio"}


def _tiny_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    lines = _tiny_run(workload, trace)
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            float(value)
            printed[name] = unit
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    want = dict(declared)
    if not trace:
        want.update(REPORT_ONLY)
        want.update([run.THROUGHPUT[workload]])
    assert printed == want
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_corrupted_artifact_value_is_counted_as_a_failure(tmp_path, monkeypatch):
    import eulerexact.cli

    real_main = eulerexact.cli.main
    corrupted = []

    def corrupting_main(argv):
        rc = real_main(argv)
        if not corrupted:
            path = argv[argv.index("--out") + 1]
            with open(path, encoding="utf-8") as f:
                lines = f.read().split("\n")
            cols = lines[1].split(",")
            cols[5] = repr(float(cols[5]) * (1.0 + 1e-9) + 1e-300)  # u1 of the first row
            lines[1] = ",".join(cols)
            with open(path, "w", encoding="utf-8") as f:
                f.write("\n".join(lines))
            corrupted.append(path)
        return rc

    monkeypatch.setattr(eulerexact.cli, "main", corrupting_main)
    loop = run.Loop(tmp_path)
    assert run.run_passes("field_export", 3, True, loop, 0.0, traced_pairs=False) == 1
    assert loop.attempted == len(workloads.field_export_deck(3, 0, tiny=True))
    assert len(loop.failures) == 1
    assert "u1" in loop.failures[0]


def test_host_factors_follow_the_rolling_median_of_the_reference():
    nominal = run.REF_NOMINAL_S
    # the host halves its speed after 20 requests; one reference time is a spike
    ref = [nominal] * 20 + [2 * nominal] * 20
    ref[5] = 10 * nominal
    factors = run.host_factors(ref)
    assert factors[:15] == pytest.approx([1.0] * 15)
    assert factors[25:] == pytest.approx([0.5] * 15)


def test_span_self_time_subtracts_children_and_uninstall_restores():
    import eulerexact.cli
    import eulerexact.emden

    t = tracer.Tracer()
    leaf = t.wrap("leaf", lambda: time.sleep(0.002))

    def outer():
        leaf()
        leaf()

    t.wrap("outer", outer)()
    totals = t.totals()
    assert totals["leaf"]["calls"] == 2 and totals["outer"]["calls"] == 1
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["s"] - totals["leaf"]["s"], abs=1e-12)
    assert totals["leaf"]["self_s"] == totals["leaf"]["s"]

    original = eulerexact.cli.integrate
    t.install()
    assert eulerexact.cli.integrate is not original
    t.uninstall()
    assert eulerexact.cli.integrate is original is eulerexact.emden.integrate
