"""Wrapper coverage of the benchmark's tracer on tiny grids.

    python3 -m pytest perfbench/test_tracing.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pytest  # noqa: E402

import dhjac  # noqa: E402
import workloads  # noqa: E402
from spans import NO_PARENT, REQUEST, Tracer  # noqa: E402


@pytest.mark.parametrize("name, evaluations_per_cell", [("sweep", 1), ("units", 2)])
def test_tiny_grid_spans(tmp_path, name, evaluations_per_cell):
    wl = workloads.WORKLOADS[name](ROOT, 7, tmp_path)
    wl.grid = 3
    tracer = Tracer()
    samples = workloads.Samples()
    originals = (dhjac.dhj.singular_values, dhjac.cli.resolve_pose, dhjac.verify.resolve_pose)
    workloads._timed(wl, 0, samples, tracer)

    assert samples.failed == 0 and samples.poses == 9
    # every namespace that binds a traced name got its original back
    assert (dhjac.dhj.singular_values, dhjac.cli.resolve_pose,
            dhjac.verify.resolve_pose) == originals
    assert tracer.name.count("dhj.dexterity_at") == evaluations_per_cell * 9
    # dhj calls resolve_pose through its own `from .model import` binding
    assert tracer.name.count("model.resolve_pose") == evaluations_per_cell * 9
    for idx, span in enumerate(tracer.name):
        if span == "dhj.singular_values":
            parent = tracer.parent[idx]
            assert parent != NO_PARENT and tracer.name[parent] != REQUEST
    assert tracer.name.count(REQUEST) == 1
    assert set(tracer.request_id) == {0}
    assert min(tracer.self_ns()) >= 0


def test_refusals_count_as_failures(tmp_path):
    wl = workloads.WORKLOADS["pose"](ROOT, 7, tmp_path)
    tracer = Tracer()
    samples = workloads.Samples()
    k = next(k for k in range(100) if not wl.geometry.reachable(
        *(wl.inputs(k)[c] for c in ("y", "z", "theta", "psi"))))
    workloads._timed(wl, k, samples, tracer)

    assert samples.failed == 0  # a correctly reported "unreachable" is a right answer
    summary = tracer.summary(samples.poses)["functions"]
    assert summary["model.resolve_pose"]["failures"] == 1
    assert summary["dhj.dexterity_at"]["failures"] == 1
