"""Per-module tracing from outside the package.

``Tracer`` replaces each traced dhjac function with a timing wrapper in
every ``dhjac`` namespace that binds it (``from .model import resolve_pose``
copies the name into ``dhj``, ``verify`` and ``cli``), records one span per
call in memory, and puts the originals back on exit.  Nothing under
``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns

#: functions traced, as ``<module>.<function>`` inside the dhjac package
TRACED = (
    "model.load_config",
    "model.resolve_pose",
    "model.inverse_kinematics",
    "screws.build_inverse_jacobian",
    "forward_map.invert_full",
    "selection.build_selection_matrix",
    "selection.nominal_map",
    "pointmap.build_Vp",
    "dhj.singular_values",
    "dhj.assemble_dhj",
    "dhj.dexterity_at",
    "dhj.unit_scaling_experiment",
    "verify.sample_poses",
    "verify.fd_actuation_jacobian",
    "verify.fd_constraint_tangent",
    "verify.forward_refine",
    "verify.brute_force_dhj",
    "cli.write_sweep_csv",
    "cli.cmd_units",
)

#: name of the benchmark's own span around one request (a query or a CLI run)
REQUEST = "bench.request"

NO_PARENT = -1


class Tracer:
    """In-memory span recorder.

    ``with tracer:`` installs the wrappers and restores the originals on exit;
    it may be entered many times, and the spans accumulate.
    """

    def __init__(self):
        self.name: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.request_id: list[int] = []
        self.failed: list[bool] = []
        self._stack = [NO_PARENT]
        self._request = NO_PARENT
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1])
        self.request_id.append(self._request)
        self.end.append(0)
        self.failed.append(False)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.failed[idx] = True
                raise
            finally:
                self._close(idx)
        return traced

    def request(self, request_id: int, fn, *args):
        """Run ``fn(*args)`` as one request under a root span."""
        self._request = request_id
        idx = self._open(REQUEST)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._request = NO_PARENT

    # -- installation ----------------------------------------------------
    def __enter__(self):
        wrappers = {}
        for qual in TRACED:
            mod_name, fn_name = qual.split(".")
            fn = getattr(importlib.import_module(f"dhjac.{mod_name}"), fn_name, None)
            if fn is not None:  # a later refactor may remove a traced function
                wrappers[id(fn)] = (fn, self._wrap(qual, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dhjac" or mod_name.startswith("dhjac.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        return False

    # -- analysis --------------------------------------------------------
    def self_ns(self) -> list[int]:
        """Span duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for idx, par in enumerate(self.parent):
            if par != NO_PARENT:
                out[par] -= self.end[idx] - self.start[idx]
        return out

    def summary(self, poses: int) -> dict:
        """Per-function calls, self time and failures, normalised per pose."""
        calls = {q: 0 for q in TRACED}
        self_total = {q: 0 for q in TRACED}
        failures = {q: 0 for q in TRACED}
        own = self.self_ns()
        root_total = root_self = 0
        for idx, name in enumerate(self.name):
            if name == REQUEST:
                root_total += self.end[idx] - self.start[idx]
                root_self += own[idx]
                continue
            calls[name] += 1
            self_total[name] += own[idx]
            failures[name] += self.failed[idx]
        per_fn = {
            q: {"calls_per_pose": calls[q] / poses,
                "self_ms_per_pose": self_total[q] / poses / 1e6,
                "failures": failures[q]}
            for q in TRACED
        }
        return {
            "functions": per_fn,
            "traced_wall_s": root_total / 1e9,
            "unattributed_pct": 100.0 * root_self / root_total if root_total else 0.0,
        }

    def write(self, path) -> None:
        """One JSON object per span: name, start/end (ns), parent index, request id."""
        with open(path, "w") as fh:
            for idx, name in enumerate(self.name):
                fh.write(json.dumps({
                    "name": name, "start_ns": self.start[idx], "end_ns": self.end[idx],
                    "parent": self.parent[idx], "request": self.request_id[idx],
                    "failed": self.failed[idx],
                }) + "\n")


def format_table(summary: dict) -> str:
    """Human-readable per-function table sorted by self time."""
    rows = sorted(summary["functions"].items(),
                  key=lambda kv: kv[1]["self_ms_per_pose"], reverse=True)
    lines = [f"{'function':36s} {'calls/pose':>11s} {'self ms/pose':>13s} {'failures':>9s}"]
    for name, r in rows:
        if r["calls_per_pose"] == 0:
            continue
        lines.append(f"{name:36s} {r['calls_per_pose']:11.3f} "
                     f"{r['self_ms_per_pose']:13.4f} {r['failures']:9d}")
    lines.append(f"unattributed: {summary['unattributed_pct']:.2f} % of "
                 f"{summary['traced_wall_s']:.3f} s traced wall time")
    return "\n".join(lines)
