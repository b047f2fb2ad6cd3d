import importlib

import pytest

import dhjac
from dhjac.errors import Stacked

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
