import dataclasses
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dhjac import verify
from dhjac.model import LimbSpec, ManipulatorConfig, load_config, resolve_many
from dhjac.pointmap import build_Vp
from dhjac.selection import PRIMARY_PLAN, build_selection_matrix, nominal_map

REPO = Path(__file__).resolve().parents[1]
REFERENCE_CONFIG = REPO / "configs" / "reference_4dof.json"


@pytest.fixture(scope="session")
def reference() -> ManipulatorConfig:
    return load_config(REFERENCE_CONFIG)


def square_config(link_length: float = 687.0) -> ManipulatorConfig:
    """Same-angle layout (base rails under the platform anchors).

    Valid for IK-level checks and maximally symmetric, but its stacked
    inverse Jacobian is singular on the theta = 0 plane; the screw-level
    tests use it as the singularity test bed.
    """
    return ManipulatorConfig(
        moving_plate_radius=200.0,
        base_radius=450.0,
        link_length=link_length,
        limbs=(
            LimbSpec(0.0, "PUS"),
            LimbSpec(90.0, "PRS"),
            LimbSpec(180.0, "PUS"),
            LimbSpec(270.0, "PRS"),
        ),
    )


@pytest.fixture(scope="session")
def square() -> ManipulatorConfig:
    return square_config()


def offset_prs_config() -> ManipulatorConfig:
    """PRS rails shifted off the platform anchor planes.

    The dependent coordinates then carry a genuine parasitic twist phi_z(psi)
    (sin(phi_z) = -A_2x / (r_a cos(psi))), which has no solution past the
    psi limit acos(A_2x / r_a) = 67.0 deg of the PRS rail planes.
    """
    return ManipulatorConfig(
        moving_plate_radius=200.0,
        base_radius=450.0,
        link_length=687.0,
        limbs=(
            LimbSpec(0.0, "PUS", base_angle_deg=45.0),
            LimbSpec(90.0, "PRS", base_angle_deg=80.0),
            LimbSpec(180.0, "PUS", base_angle_deg=135.0),
            LimbSpec(270.0, "PRS", base_angle_deg=260.0),
        ),
    )


def checked(result):
    """A stage result that must be ok at every pose; raises the first refusal otherwise.

    The stages record refusals in ``result.status`` and fill the refused rows
    with NaN.  A test that expects a clean result checks it here, so that a
    refusal fails the test instead of slipping through ``max`` or
    ``assert_allclose`` as NaN.
    """
    result.status.check()
    return result


def one(result):
    """The value of a stage result at the pose of a stack of one; raises its refusal."""
    return checked(result).value[0]


def row(record, i: int = 0) -> SimpleNamespace:
    """Pose ``i`` of a stage record over a stack (``PlatformPose``, ``InverseJacobian``, ...):
    each array field at that row; the other fields but ``status`` as they are."""
    fields = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    return SimpleNamespace(**{name: v[i] if isinstance(v, np.ndarray) else v
                              for name, v in fields.items() if name != "status"})


def S_at(plan, points):
    """The selection matrix (f, 3f) of a plan at one point set (f, 3): row 0 of
    ``build_selection_matrix`` over a stack of one; raises its refusal."""
    return checked(build_selection_matrix(plan, [points])).S[0]


def Vp_at(points):
    """V_p (3n, 6) of one point set (n, 3): row 0 of ``build_Vp`` over a stack of one."""
    return build_Vp([points])[0]


def V_ps_at(plan, points):
    """The nominal map S V_p (f, 6) of a plan at one point set (f, 3), as a stack of one;
    raises the refusal of the selection."""
    return nominal_map(checked(build_selection_matrix(plan, [points])), build_Vp([points]))[0]


def fd_at(cfg: ManipulatorConfig, coords, h: float = 1e-6):
    """The FD tangent (6, 4) and actuation Jacobian (f, 4) at one pose: ``verify.fd_oracles``
    over a stack of one, raising the tangent's refusal first."""
    tangent, actuation = verify.fd_oracles(cfg, resolve_many(cfg, [coords]), h)
    return one(tangent), one(actuation)


def bf_over(cfg: ManipulatorConfig, centers, rows=None):
    """``verify._brute_force_dhj`` at a resolved stack under the primary plan, whose selection
    matrix of the centers it builds as the chain does."""
    return verify._brute_force_dhj(cfg, centers, build_selection_matrix(PRIMARY_PLAN, centers.a),
                                   rows)


def bf_at(cfg: ManipulatorConfig, coords):
    """The brute-force J_dh (f, f) at one pose: the stacked oracle over a stack of one."""
    return one(bf_over(cfg, resolve_many(cfg, [coords])))


def random_coords(cfg: ManipulatorConfig, n: int, seed: int,
                  envelope_frac: float = 1.0) -> list[tuple[float, float, float, float]]:
    """``verify.random_coords``, the poses ``dhjac validate`` samples, over a widened envelope."""
    widened = dataclasses.replace(cfg, envelope_deg=cfg.envelope_deg * envelope_frac)
    return verify.random_coords(widened, n, seed)
