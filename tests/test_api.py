import dataclasses
import importlib
import inspect

import pytest

import dhjac
from dhjac.errors import Stacked
from dhjac.model import PlatformPose
from dhjac.selection import SelectionMatrix
from dhjac.verify import run_validation, sample_poses

#: one-pose and duplicate entry points that the API leaves out: ``verify.fd_oracles``,
#: ``verify.sample_poses`` and ``forward_map.cond_from_sigmas`` are the only forms, and
#: ``errors.Status`` has no one-pose mode for ``any_true`` to serve
DELETED = {
    "dhjac": ("condition_number", "fd_actuation_jacobian", "fd_constraint_tangent"),
    "dhjac.verify": ("fd_actuation_jacobian", "fd_constraint_tangent", "_fd_oracles",
                     "_sample_poses"),
    "dhjac.errors": ("any_true",),
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
