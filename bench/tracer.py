"""In-memory span tracer for the traced benchmark run.

Spans are recorded by wrappers installed at the places where callers look
the library's public functions up (module attributes such as
``eulerexact.cli.integrate``, or class attributes such as
``Field3D.eval``).  Nothing in the package is edited: :meth:`Tracer.install`
swaps the wrappers in and :meth:`Tracer.uninstall` restores the originals.

Each span is five numbers kept in flat arrays (name id, parent index,
request id, start, end) so that millions of spans stay small; they are
written out once, when the run ends.  Self time is a span's duration minus
the durations of its direct children (calls nest, so children never
overlap each other).
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute or "Class.method", span name): every lookup site the
# workloads reach, named by the layer that owns the function
SITES = [
    ("eulerexact.cli", "build_config", "config.build_config"),
    ("eulerexact.cli", "integrate", "emden.integrate"),
    ("eulerexact.classify", "integrate", "emden.integrate"),
    ("eulerexact.emden", "integrate", "emden.integrate"),
    ("eulerexact.verify", "advance", "emden.advance"),
    ("eulerexact.emden", "Trajectory.state_at", "emden.state_at"),
    ("eulerexact.fields", "Field3D.eval", "fields.eval"),
    ("eulerexact.fields", "Field2D.eval", "fields.eval"),
    ("eulerexact.fields", "Field3D.eval_grid", "fields.eval_grid"),
    ("eulerexact.fields", "Field2D.eval_grid", "fields.eval_grid"),
    ("eulerexact.profiles", "DensityProfile.value_many", "profiles.value_many"),
    ("eulerexact.cli", "refined_residual", "verify.refined_residual"),
    ("eulerexact.verify", "total_mass", "verify.total_mass"),
    ("eulerexact.cli", "classify_3d", "classify.classify_3d"),
    ("eulerexact.cli", "detect_period_2d", "classify.detect_period_2d"),
]


def _integrate_counts(counts, args, kwargs, traj, seconds):
    counts["emden.integrate." + traj.termination.kind] += 1
    if kwargs.get("dense_times") is None:
        # without sample times the trajectory holds t0 plus one state per
        # accepted step (the last replaced by the collapse point on blowup)
        counts["emden.integrate.steps"] += len(traj.states) - 1
        counts["emden.integrate.steps_s"] += seconds


def _eval_grid_counts(counts, args, kwargs, out, seconds):
    cells = out["rho"].size
    counts["fields.eval_grid.cells"] += cells
    counts["fields.eval_grid.bytes_computed"] += cells * len(out) * 8


_COUNTERS = {"emden.integrate": _integrate_counts, "fields.eval_grid": _eval_grid_counts}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: defaultdict[str, float] = defaultdict(int)
        self.current_request = -1
        self._stack = [-1]
        self._patches = []
        for module, attr, span in SITES:
            owner = importlib.import_module(module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            self._patches.append((owner, attr, original, self.wrap(span, original)))

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` recording one span named ``name`` per call."""
        nid = self._name_id(name)
        counter = _COUNTERS.get(name)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, stack, counts = self.start, self.end, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(self.current_request)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if counter is not None:
                counter(counts, args, kwargs, out, t1 - t0)
            return out

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        # copies, so the arrays stay free to grow
        return {"names": np.array(self.names, dtype=str),
                "name": np.frombuffer(self.name, np.int32).copy(),
                "parent": np.frombuffer(self.parent, np.int64).copy(),
                "request": np.frombuffer(self.request, np.int64).copy(),
                "start": np.frombuffer(self.start).copy(),
                "end": np.frombuffer(self.end).copy()}

    def save(self, path) -> None:
        np.savez(path, **self.spans())

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds ``s`` and ``self_s``."""
        sp = self.spans()
        n = len(sp["start"])
        dur = sp["end"] - sp["start"]
        nested = sp["parent"] >= 0
        child = np.bincount(sp["parent"][nested], weights=dur[nested], minlength=n)
        own = dur - child[:n]
        k = len(self.names)
        calls = np.bincount(sp["name"], minlength=k)
        total = np.bincount(sp["name"], weights=dur, minlength=k)
        self_total = np.bincount(sp["name"], weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(self_total[i])}
                for i, name in enumerate(self.names)}
