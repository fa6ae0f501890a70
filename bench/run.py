"""Benchmark of the eulerexact CLI modes, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {field_export,dynamics,certify} \\
        --seed N --seconds S --trace {0,1}

One client in this process sends one request at a time (a closed loop):
an in-process ``eulerexact.cli.main`` call, or the library mass check of the
``certify`` workload.  Whole passes over the workload's deck run until
``--seconds`` have elapsed, and every artifact is checked against an
independent oracle before the next request is sent.

``--trace 0`` reports the end-to-end metrics, with request times adjusted
to a nominal host speed by a reference loop timed before each request (see
``REF_NOMINAL_S``); the wall-clock times are printed beside them under
``wall.``.  ``--trace 1`` runs every
request twice, once plain and once with span wrappers installed (alternating
which goes first), and reports the per-layer metrics from the traced copies
and the tracing overhead from the pair.  Both print ``metric <name> <value>
<unit>`` lines and a provenance line, write the same record under
``.bench_out/``, and end with one JSON line for the harness.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 5
REQUEST_TIME_BOUND_S = 30.0

# Host-speed reference: a fixed pure-Python integer loop, timed just before
# every request of an untraced run.  The shared host has slower and faster
# spells that last seconds to minutes and move whole runs by 20 to 40 %; the
# reference slows and speeds up with them.  Request times are reported
# adjusted to the host speed at which the loop takes REF_NOMINAL_S, using the
# median of the 2 * REF_HALF_WINDOW + 1 reference times around each request.
# Set-up time is not adjusted: it is mostly imports, which the loop tracks
# worse than no adjustment at all.
REF_LOOPS = 40_000
REF_NOMINAL_S = 3.0e-3
REF_HALF_WINDOW = 4

# metric names and units, as declared for the harness
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]
# items_per_s under its per-workload name
THROUGHPUT = {"field_export": ("rows_per_s", "rows/s"),
              "dynamics": ("sweep_points_per_s", "points/s"),
              "certify": ("residual_points_per_s", "points/s")}

# a fresh interpreter up to the point where the first request could be sent
_SETUP_CHILD = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "import eulerexact.cli as cli; cli.build_parser(); print(time.monotonic())")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every request (smoke tests)")
    return ap.parse_args(argv)


def _percentile(values, q):
    return float(np.percentile(values, q))


def reference_kernel() -> float:
    """Seconds taken by the fixed reference loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def host_factors(ref_times: list[float]) -> np.ndarray:
    """Per request, REF_NOMINAL_S over the rolling median of the reference
    times around it: multiply a time by it to adjust it to nominal speed."""
    ref = np.asarray(ref_times)
    h = REF_HALF_WINDOW
    local = np.array([np.median(ref[max(0, i - h):i + h + 1]) for i in range(len(ref))])
    return REF_NOMINAL_S / local


def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter to a built CLI parser."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - t0


class Loop:
    """Closed-loop client: runs requests, checks artifacts, keeps the tallies."""

    def __init__(self, workdir: Path, tracer=None):
        self.workdir = workdir
        self.tracer = tracer
        self.latencies: list[float] = []
        self.items: list[int] = []
        self.ref_times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.mislabeled = 0
        self.bytes_written = 0
        self.plain_seconds = 0.0
        self.traced_seconds = 0.0
        self.digests: dict[tuple[int, str], str] = {}

    def _execute(self, req, path: str, traced: bool):
        import eulerexact.cli

        if req.kind == "mass":
            fn, name, args = workloads.run_mass_check, "bench.mass_check", (req.spec, path)
        else:
            fn, name, args = eulerexact.cli.main, "cli.main", (req.argv + ["--out", path],)
        if traced:
            fn = self.tracer.wrap(name, fn)
            self.tracer.current_request = self.attempted
            self.tracer.install()
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = fn(*args)
        except (Exception, SystemExit) as exc:
            error = f"raised {exc!r}"
        finally:
            seconds = time.perf_counter() - t0
            if traced:
                self.tracer.uninstall()
        return rc, error, seconds, err.getvalue()

    def run(self, req, pass_index: int, traced: bool = False) -> None:
        path = str(self.workdir / workloads.artifact_name(req))
        ref = reference_kernel() if self.tracer is None else None
        rc, error, seconds, stderr = self._execute(req, path, traced)
        self.attempted += 1
        if error is None and seconds > REQUEST_TIME_BOUND_S:
            error = f"took {seconds:.1f} s, bound {REQUEST_TIME_BOUND_S} s"
        if error is None:
            try:
                error = workloads.check(req, rc, path, stderr)
            except Exception as exc:  # a malformed artifact fails this request only
                error = f"unreadable artifact: {exc!r}"
        if error is None:
            with open(path, "rb") as f:
                digest = hashlib.file_digest(f, "sha256").hexdigest()
            if self.digests.setdefault((pass_index, req.key), digest) != digest:
                error = "artifact bytes differ from those of the identical request"
        if error is None and req.kind == "sweep" and (traced or self.tracer is None):
            self.mislabeled += workloads.count_mislabeled(path)
        if error is None and traced and req.kind != "mass":
            self.bytes_written += os.path.getsize(path)
        if error is not None:
            self.failures.append(f"{req.key}: {error}")
        if traced:
            self.traced_seconds += seconds
        else:
            self.plain_seconds += seconds
            self.latencies.append(seconds)
            self.items.append(req.items)
            if ref is not None:
                self.ref_times.append(ref)

    def artifact_digest(self) -> str:
        """sha256 over the artifact digests of the first deck pass."""
        h = hashlib.sha256()
        for (pass_index, key), digest in sorted(self.digests.items()):
            if pass_index == 0:
                h.update(f"{key} {digest}\n".encode())
        return h.hexdigest()


def run_passes(workload: str, seed: int, tiny: bool, loop: Loop, seconds: float,
               traced_pairs: bool, between_passes=None) -> int:
    """Run whole deck passes until ``seconds`` have elapsed; return the count.

    Traced runs skip the once-per-run requests, so that every traced pass
    does the same work and per-pass layer totals compare between commits.
    ``between_passes(elapsed)`` is called after each pass with the seconds
    spent in passes so far; its own time is not counted.
    """
    elapsed = 0.0
    passes = 0
    while True:
        start = time.perf_counter()
        deck = workloads.DECKS[workload](seed, passes, tiny)
        if traced_pairs:
            for i, req in enumerate(r for r in deck if not r.once):
                first_traced = (passes + i) % 2 == 1
                loop.run(req, passes, traced=first_traced)
                loop.run(req, passes, traced=not first_traced)
        else:
            for req in deck:
                loop.run(req, passes)
        passes += 1
        elapsed += time.perf_counter() - start
        if between_passes is not None:
            between_passes(elapsed)
        if elapsed >= seconds:
            return passes


def warm_up(workload: str, seed: int, workdir: Path) -> None:
    """One untimed pass of the tiny deck: lazy imports and first-call costs
    are paid here, not by the first measured request."""
    loop = Loop(workdir)
    for req in workloads.DECKS[workload](seed, 0, tiny=True):
        loop.run(req, 0)


def end_to_end_metrics(loop: Loop, setup: list[float]
                       ) -> tuple[dict[str, float], dict[str, float]]:
    """The declared metrics, with request times adjusted to nominal host
    speed, and those request times as measured on the wall clock."""
    wall = np.asarray(loop.latencies)
    factors = host_factors(loop.ref_times)
    adjusted = wall * factors
    items = np.asarray(loop.items)
    counted = items > 0

    def times(lat):
        return {"op_p50_ms": 1e3 * _percentile(lat, 50),
                "op_p90_ms": 1e3 * _percentile(lat, 90),
                "items_per_s": float(items.sum() / lat[counted].sum())}

    metrics = {"setup_s": statistics.median(setup), **times(adjusted),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    on_wall = times(wall)
    on_wall["host_speed"] = float(np.median(factors))
    return metrics, on_wall


def per_layer_metrics(loop: Loop, passes: int) -> dict[str, float]:
    """Layer metrics of the traced requests; counts and seconds per deck pass."""
    totals = loop.tracer.totals()
    counts = {k: v / passes for k, v in loop.tracer.counts.items()}
    counts = defaultdict(int, counts)

    def get(span, key):
        value = totals.get(span, {}).get(key, 0)
        return value / passes if key in ("calls", "s", "self_s") else value

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    cli_self = get("cli.main", "self_s")
    steps = counts["emden.integrate.steps"]
    cells = counts["fields.eval_grid.cells"]
    m = {
        "cli.self_s": cli_self,
        "cli.bytes_written": loop.bytes_written / passes,
        "cli.ns_per_byte": ratio(cli_self, loop.bytes_written / passes, 1e9),
        "emden.integrate.steps": steps,
        "emden.integrate.us_per_step": ratio(counts["emden.integrate.steps_s"], steps, 1e6),
        "emden.integrate.blowups": counts["emden.integrate.blowup"],
        "fields.eval_grid.cells": cells,
        "fields.eval_grid.ns_per_cell": ratio(get("fields.eval_grid", "s"), cells, 1e9),
        "fields.eval_grid.bytes_computed": counts["fields.eval_grid.bytes_computed"],
        "fields.eval.us_per_call": ratio(get("fields.eval", "s"),
                                         get("fields.eval", "calls"), 1e6),
        "classify.mislabeled_cells": loop.mislabeled / passes,
        "trace.overhead": ratio(loop.traced_seconds, loop.plain_seconds) - 1.0,
    }
    for name, _ in PER_LAYER:
        if name not in m:
            span, key = name.rsplit(".", 1)
            m[name] = get(span, key)
    return {name: m[name] for name, _ in PER_LAYER}


def provenance(args, loop: Loop, passes: int) -> dict:
    import scipy

    import eulerexact

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "requests": loop.attempted,
            "deck_passes": passes, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "eulerexact": eulerexact.__version__,
            "artifact_sha256": loop.artifact_digest()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "eulerexact" / "__init__.py").is_file():
        print(f"error: no eulerexact package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eulerexact.cli  # noqa: F401  (the set-up cost is paid here, untimed)

    # fresh-interpreter samples are spread over the run, between passes, so
    # that they meet the same host as the requests do
    setup_samples = 0 if args.trace else 1 if args.tiny else SETUP_SAMPLES
    setup: list[float] = []

    def sample_setup(elapsed: float) -> None:
        if len(setup) < setup_samples and elapsed >= len(setup) * args.seconds / setup_samples:
            setup.append(measure_setup())

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if not args.tiny:
            warm_up(args.workload, args.seed, workdir)
        loop = Loop(workdir, Tracer() if args.trace else None)
        passes = run_passes(args.workload, args.seed, args.tiny, loop, args.seconds,
                            traced_pairs=bool(args.trace), between_passes=sample_setup)
        while len(setup) < setup_samples:
            sample_setup(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer_metrics(loop, passes)
        units = dict(PER_LAYER)
        loop.tracer.save(OUT / f"spans-{args.workload}.npz")
    else:
        metrics, on_wall = end_to_end_metrics(loop, setup)
        units = dict(END_TO_END)
    prov = provenance(args, loop, passes)

    report = dict(metrics)
    report_units = dict(units)
    if not args.trace:
        alias, unit = THROUGHPUT[args.workload]
        report[alias], report_units[alias] = metrics["items_per_s"], unit
        report["error_rate"], report_units["error_rate"] = (
            len(loop.failures) / loop.attempted, "ratio")
        report["classify.mislabeled_cells"] = loop.mislabeled / passes
        report_units["classify.mislabeled_cells"] = "count"
        for name, value in on_wall.items():
            report["wall." + name] = value
            report_units["wall." + name] = units.get(name, "ratio")
    p90 = _percentile(loop.latencies, 90)
    beyond = sum(1 for x in loop.latencies if x > p90)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{loop.attempted} requests in {passes} deck passes, "
          f"{beyond} latencies beyond p90, {len(loop.failures)} failed")
    for failure in loop.failures[:20]:
        print(f"failure {failure}")
    for name, value in report.items():
        print(f"metric {name} {value!r} {report_units[name]}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as f:
        json.dump({"provenance": prov, "failures": loop.failures,
                   "metrics": {k: {"value": v, "unit": report_units[k]}
                               for k, v in report.items()}}, f, indent=1)
    print(json.dumps({
        "correct": not loop.failures, "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
