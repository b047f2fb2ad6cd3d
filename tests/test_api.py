import ast
import dataclasses
import importlib
import inspect
import math
import re
import textwrap
import types
from pathlib import Path

import pytest

import dhjac
from dhjac import verify
from dhjac.dhj import condition_numbers_at
from dhjac.errors import KinematicsError, Stacked
from dhjac.model import ManipulatorConfig, PlatformPose
from dhjac.screws import build_inverse_jacobian
from dhjac.selection import SelectionMatrix
from dhjac.verify import run_validation, sample_poses

#: one-pose and duplicate entry points that the API leaves out: ``verify.fd_oracles``,
#: ``verify.sample_poses`` and ``forward_map.cond_from_sigmas`` are the only forms, and
#: ``errors.Status`` has no one-pose mode for ``any_true`` to serve.  The dependent
#: coordinates have a closed form (``model._phi_z``), so no damped Newton, its constants or
#: its ``NoConvergence`` refusal remain.  The rejected PUS-normal rows have their own builder,
#: ``screws.pus_normal_rows``, so no row-variant name selects them.  A validation record is
#: built once, as the dict the report writes, and ``cli._units_text`` writes both units texts
DELETED = {
    "dhjac": ("condition_number", "fd_actuation_jacobian", "fd_constraint_tangent"),
    "dhjac.verify": ("fd_actuation_jacobian", "fd_constraint_tangent", "_fd_oracles",
                     "_sample_poses", "OracleReport"),
    "dhjac.errors": ("any_true", "NoConvergence"),
    "dhjac.model": ("_resolve_dependent", "_plane_residual", "_start_residual", "RESOLVE_TOL",
                    "RESOLVE_MAX_ITER", "RESOLVE_DET_RTOL", "RESOLVE_HALVINGS"),
    "dhjac.screws": ("PUS_ROW_VARIANT",),
    "dhjac.dhj": ("grid_blocks",),
    "dhjac.cli": ("SweepSpec", "_spec_from_args", "_write_json", "_write_validation_json",
                  "_CHECK_RECORD", "_json_float", "_units_line", "_write_units_json"),
}


def test_every_exported_name_resolves():
    assert len(set(dhjac.__all__)) == len(dhjac.__all__)
    assert [name for name in dhjac.__all__ if not hasattr(dhjac, name)] == []
    namespace = {}
    exec("from dhjac import *", namespace)
    assert set(dhjac.__all__) <= namespace.keys()


def test_deleted_names_cannot_be_imported():
    for module, names in DELETED.items():
        for name in names:
            assert not hasattr(importlib.import_module(module), name), f"{module}.{name}"
            with pytest.raises(ImportError):
                exec(f"from {module} import {name}", {})
    assert not hasattr(Stacked, "one")
    # the selection matrices do not keep their plan: no stage reads it back
    assert [f.name for f in dataclasses.fields(SelectionMatrix)] == ["S", "status"]


def test_a_set_of_poses_has_one_form(reference):
    # a stack carries its poses as one (N, 4) ``coords`` field, not four coordinate arrays
    assert not {"y", "z", "theta", "psi"} & {f.name for f in dataclasses.fields(PlatformPose)}
    # validation checks J_dh against the brute force at a fixed count of poses
    assert "n_dhj" not in inspect.signature(run_validation).parameters
    # the feasible poses are the stack, with no list of tuples beside it
    result = sample_poses(reference, 3)
    assert len(result) == 2 and isinstance(result[0], PlatformPose)
    assert result[0].coords.shape == (3, 4)


def test_each_oracle_has_one_form():
    # the oracles take the chord Jacobian and the central-difference rows their caller
    # resolved, with no default that would resolve them a second way; the unit a scale
    # lands on is decided by ``scaled`` alone, and G^T has one builder per row recipe
    for fn, name in ((verify.forward_refine, "jacobian"), (verify._brute_force_dhj, "rows"),
                     (verify.fd_oracles, "rows")):
        assert inspect.signature(fn).parameters[name].default is inspect.Parameter.empty
    for fn in (ManipulatorConfig.scaled, build_inverse_jacobian):
        assert not {"unit", "variant"} & inspect.signature(fn).parameters.keys()


def refused_errors(fn, seen=None) -> set:
    """The ``KinematicsError`` classes that ``fn`` and every ``dhjac`` function it calls by
    name (``f(...)`` or ``module.f(...)``) record through ``Status.refuse`` or
    ``Status.refuse_first``."""
    seen = set() if seen is None else seen
    if fn in seen:
        return set()
    seen.add(fn)
    found = set()
    for call in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        if not isinstance(call, ast.Call):
            continue
        f = call.func
        if isinstance(f, ast.Attribute) and f.attr in ("refuse", "refuse_first"):
            found.add(fn.__globals__[call.args[1].id])
            continue
        if isinstance(f, ast.Name):
            callee = fn.__globals__.get(f.id)
        elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            callee = getattr(fn.__globals__.get(f.value.id), f.attr, None)
        else:
            continue
        if isinstance(callee, types.FunctionType) and callee.__module__.startswith("dhjac"):
            found |= refused_errors(callee, seen)
    return found


def test_readme_lists_the_codes_a_grid_can_write():
    # the status codes README documents for the sweep CSV are those the chain behind
    # condition_numbers_at can record: a code removed from the chain, or added to it,
    # fails here until its README line follows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("The codes (`dhjac.errors`;", 1)[1].split("\n\n", 2)[1]
    documented = re.findall(r"^\* `(\w+)`:", block, flags=re.MULTILINE)
    errors = refused_errors(condition_numbers_at)
    assert all(issubclass(e, KinematicsError) for e in errors)
    assert sorted(documented) == sorted(e.code for e in errors)
    assert "unreachable" in documented and "singular_selection" in documented


def test_readme_lists_the_records_validate_reports(reference):
    # README's table of validation records names the checks run_validation reports, in order,
    # with their thresholds, and a measurement exactly where the threshold is infinite: a
    # record added, removed, renamed or moved fails here until its README row follows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Validation report", 1)[1].split("| --- |", 1)[1].split("\n\n", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in table.strip().splitlines()[1:]]
    report = run_validation(reference, seed=7, n_poses=6)["checks"]
    assert [row[0] for row in rows] == [f"`{check['name']}`" for check in report]
    assert [float(row[1]) for row in rows] == [check["threshold"] for check in report]
    assert [row[4] for row in rows] == [
        "measurement" if math.isinf(check["threshold"]) else "check" for check in report]
