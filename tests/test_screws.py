import dataclasses
import math

import numpy as np
import pytest

from dhjac.errors import SingularLimb
from dhjac.model import resolve_pose
from dhjac.screws import build_inverse_jacobian
from dhjac.verify import fd_actuation_jacobian, fd_constraint_tangent

from conftest import checked, random_coords, square_config


def pose_at(cfg, y, z, th_deg, ps_deg):
    return resolve_pose(cfg, y, z, math.radians(th_deg), math.radians(ps_deg))


def test_shapes_and_blocks(reference):
    G = checked(build_inverse_jacobian(pose_at(reference, 0, 150, 10, -20)))
    assert G.G_a_T.shape == (4, 6)
    assert G.G_c_T.shape == (2, 6)
    assert G.stacked.shape == (6, 6)
    assert abs(np.linalg.det(G.stacked)) > 1e-12


def test_pure_heave_rows_equal(reference):
    # all rails are vertical, so heave maps to unit rate on every limb
    G = checked(build_inverse_jacobian(pose_at(reference, 0, 150, 0, 0)))
    qdot = G.G_a_T @ np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(qdot, np.ones(4), rtol=1e-12)


def test_actuation_rows_match_fd_ik_at_home(reference):
    coords = (0.0, 150.0, 0.0, 0.0)
    G = checked(build_inverse_jacobian(pose_at(reference, *coords)))
    T = fd_constraint_tangent(reference, coords)
    FD = fd_actuation_jacobian(reference, coords)
    err = np.max(np.abs(G.G_a_T @ T - FD)) / np.max(np.abs(FD))
    assert err < 1e-6


def test_constraint_rows_annihilate_feasible_velocity(reference):
    for coords in random_coords(reference, 10, seed=11):
        G = checked(build_inverse_jacobian(pose_at(reference, 0.0, coords[1],
                                                   math.degrees(coords[2]),
                                                   math.degrees(coords[3]))))
        T = fd_constraint_tangent(reference, coords)
        assert np.max(np.abs(G.G_c_T @ T)) < 1e-8


def test_row_scale_invariance(reference):
    # the row normalization cancels any rescaling of the screw direction
    pose = pose_at(reference, 0, 150, 15, 25)
    G = checked(build_inverse_jacobian(pose))
    G2 = checked(build_inverse_jacobian(dataclasses.replace(pose, link=3.7 * pose.link)))
    np.testing.assert_allclose(G2.stacked, G.stacked, rtol=1e-12, atol=1e-12)


def test_global_scaling_moves_only_moment_blocks(reference):
    s = 0.001
    pose = pose_at(reference, 0, 150, 12, -33)
    scaled = reference.scaled(s, unit="m")
    pose_s = pose_at(scaled, 0.0, 0.150, 12, -33)
    G = checked(build_inverse_jacobian(pose))
    Gs = checked(build_inverse_jacobian(pose_s))
    for M, Ms in ((G.G_a_T, Gs.G_a_T), (G.G_c_T, Gs.G_c_T)):
        np.testing.assert_allclose(Ms[:, :3], M[:, :3], rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(Ms[:, 3:], s * M[:, 3:], rtol=1e-9, atol=1e-15)


def test_singular_limb_raised_at_horizontal_link():
    # link length equal to the lateral offset leaves the rail reciprocal
    cfg = square_config(link_length=250.0)
    G = build_inverse_jacobian(resolve_pose(cfg, 0.0, 150.0, 0.0, 0.0))
    with pytest.raises(SingularLimb) as info:
        G.status.check()
    assert str(info.value) == "limb 1: actuation screw reciprocal to rail (|u.s1| = 0.000e+00)"
    assert (G.status.refusals[()].limb, G.status.refusals[()].value) == (1, 0.0)


def test_singular_limb_nan_only_on_the_refused_pose(reference):
    # a stack of a reference pose, a pose whose four links are horizontal, and the first again
    ok = resolve_pose(reference, 0.0, 150.0, 0.1, 0.2)
    bad = resolve_pose(square_config(link_length=250.0), 0.0, 150.0, 0.0, 0.0)
    stack = dataclasses.replace(ok, a=np.stack([ok.a, bad.a, ok.a]),
                                link=np.stack([ok.link, bad.link, ok.link]))
    G = build_inverse_jacobian(stack)
    assert G.status.codes() == ["ok", "singular_limb", "ok"]
    assert G.status.refusals[(1,)].limb == 1
    assert np.isnan(G.G_a_T[1]).all() and np.isfinite(G.G_c_T).all()
    alone = checked(build_inverse_jacobian(ok)).stacked
    for i in (0, 2):
        assert G.stacked[i].tobytes() == alone.tobytes()


def test_rejected_variants_fail_the_oracle(reference):
    # normal-direction rows for the PUS limbs and the flipped moment block
    # both disagree with the finite-difference IK Jacobian away from psi = 0;
    # this pins the adopted recipe (link rows, a x u moments)
    coords = (0.0, 150.0, math.radians(25.0), math.radians(35.0))
    T = fd_constraint_tangent(reference, coords)
    FD = fd_actuation_jacobian(reference, coords)
    pose = resolve_pose(reference, *coords)
    scale = np.max(np.abs(FD))

    adopted = checked(build_inverse_jacobian(pose))
    assert np.max(np.abs(adopted.G_a_T @ T - FD)) / scale < 1e-6

    n_rows = checked(build_inverse_jacobian(pose, variant="normal"))
    assert np.max(np.abs(n_rows.G_a_T @ T - FD)) / scale > 1e-3

    flipped = checked(build_inverse_jacobian(pose, moment_sign=-1.0))
    assert np.max(np.abs(flipped.G_a_T @ T - FD)) / scale > 1e-3

