import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dhjac.errors import BlockSingular, KinematicsError, SingularConfiguration, Status
from dhjac.forward_map import (SIGMA_FLOOR, block_Ja, cond_from_sigmas, invert_full,
                               singular_values)
from dhjac.model import resolve_many, resolve_pose
from dhjac.screws import InverseJacobian, build_inverse_jacobian

from conftest import checked, offset_prs_config, one, random_coords, row, square_config


def G_at(cfg, coords):
    """G^T at one pose, as a stack of one; its refusal raised."""
    return checked(build_inverse_jacobian(resolve_pose(cfg, *coords)))


def fwd_at(G):
    """The forward Jacobian of a stack of one G^T, at its pose; its refusal raised."""
    return row(checked(invert_full(G)))


def test_identity_inverse():
    eye = np.eye(6)
    G = InverseJacobian(G_a_T=eye[None, :4], G_c_T=eye[None, 4:], status=Status(1))
    fwd = fwd_at(G)
    np.testing.assert_array_equal(fwd.J, eye)
    np.testing.assert_array_equal(fwd.J_a, eye[:, :4])
    assert fwd.cond_GT == pytest.approx(1.0)


def test_inversion_residual_reference(reference):
    G = G_at(reference, (0.0, 150.0, 0.0, 0.0))
    fwd = fwd_at(G)
    assert np.max(np.abs(G.stacked[0] @ fwd.J - np.eye(6))) < 1e-10


def test_constraint_compatibility(reference):
    rng = np.random.default_rng(5)
    for coords in random_coords(reference, 8, seed=21):
        G = G_at(reference, coords)
        fwd, G = fwd_at(G), row(G)
        for _ in range(4):
            qdot = rng.standard_normal(4)
            xdot = fwd.J_a @ qdot
            assert np.max(np.abs(G.G_c_T @ xdot)) < 1e-10 * max(1.0, np.max(np.abs(xdot)))
        # J_c columns span the directions annihilated by the actuation rows
        assert np.max(np.abs(G.G_a_T @ fwd.J_c)) < 1e-10


def test_singular_configuration_raises(square):
    # the same-angle layout is forward-singular on the theta = 0 plane
    G = G_at(square, (0.0, 150.0, 0.0, 0.2))
    with pytest.raises(SingularConfiguration):
        invert_full(G).status.check()
    # slightly off the plane it is merely ill-conditioned
    G = G_at(square, (0.0, 150.0, 0.05, 0.2))
    fwd = fwd_at(G)
    assert fwd.cond_GT > 1e3


def test_singular_values_nan_exactly_where_not_finite():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((4, 5, 3))
    M[1, 2, 0], M[3, 0, 2] = math.nan, -math.inf
    sv = singular_values(M)
    assert np.isnan(sv).all(axis=1).tolist() == [False, True, False, True]
    assert not np.isnan(sv[[0, 2]]).any()
    for i in (0, 2):
        np.testing.assert_array_equal(sv[i], singular_values(M[i:i + 1])[0])


def test_cond_from_sigmas_infinite_below_floor():
    sv = np.array([[2.0, 1.0], [3.0, 0.0], [1.0, SIGMA_FLOOR / 10], [1.0, SIGMA_FLOOR],
                   [math.nan, math.nan]])
    k = cond_from_sigmas(sv)
    assert k[:4].tolist() == [2.0, math.inf, math.inf, 1.0 / SIGMA_FLOOR]
    assert math.isnan(k[4])
    assert cond_from_sigmas(np.array([[3.0, 1.5]]))[0] == 2.0
    assert cond_from_sigmas(np.array([[1.0, 0.0]]))[0] == math.inf


def test_invert_full_nan_only_on_the_singular_pose(reference, square):
    # G^T of a reference pose, of the square layout at theta = 0 (singular), and of another
    G = [G_at(reference, (0.0, 150.0, 0.1, 0.2)), G_at(square, (0.0, 150.0, 0.0, 0.2)),
         G_at(reference, (20.0, 160.0, -0.3, 0.4))]
    stack = InverseJacobian(G_a_T=np.concatenate([g.G_a_T for g in G]),
                            G_c_T=np.concatenate([g.G_c_T for g in G]), status=Status(3))
    fwd = invert_full(stack)
    assert fwd.status.codes() == ["ok", "singular_configuration", "ok"]
    assert np.isnan(fwd.J[1]).all()
    for i in (0, 2):
        alone = fwd_at(G[i])
        assert fwd.J[i].tobytes() == alone.J.tobytes()
        assert fwd.cond_GT[i] == alone.cond_GT


def _cond_GT_or_code(cfg, coords):
    try:
        return fwd_at(G_at(cfg, coords)).cond_GT
    except KinematicsError as exc:
        return exc.code


ANGLE = st.floats(min_value=-math.radians(50.0), max_value=math.radians(50.0))


@given(perm=st.permutations(range(4)), layout=st.sampled_from(["ref", "offset"]),
       y=st.floats(min_value=-100.0, max_value=100.0),
       z=st.floats(min_value=100.0, max_value=200.0), theta=ANGLE, psi=ANGLE)
@example(perm=[2, 3, 0, 1], layout="square", y=0.0, z=150.0, theta=0.0, psi=0.2)
@settings(max_examples=60, deadline=None)
def test_cond_G_invariant_under_limb_relabelling(reference, perm, layout, y, z, theta, psi):
    # permuting cfg.limbs permutes the rows of G^T, which leaves its singular
    # values alone (measured 1.3e-13 over 24 relabellings x 150 poses); J_dh is
    # not held to this, since the selection plan names limbs by label
    cfg = {"ref": reference, "offset": offset_prs_config(), "square": square_config()}[layout]
    relabelled = dataclasses.replace(cfg, limbs=tuple(cfg.limbs[i] for i in perm))
    k = _cond_GT_or_code(cfg, (y, z, theta, psi))
    k_perm = _cond_GT_or_code(relabelled, (y, z, theta, psi))
    if isinstance(k, str) or isinstance(k_perm, str):
        assert k_perm == k
    else:
        assert k_perm == pytest.approx(k, rel=1e-10, abs=0.0)


def test_block_formula_matches_direct_inversion(reference):
    for coords in random_coords(reference, 12, seed=31):
        G = checked(build_inverse_jacobian(resolve_many(reference, [coords])))
        fwd = checked(invert_full(G))
        dev = np.max(np.abs(checked(block_Ja(G)).value - fwd.J_a)) / np.max(np.abs(fwd.J_a))
        assert dev < 1e-9


def test_block_formula_random_partitions():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        M = rng.standard_normal((6, 6))
        if abs(np.linalg.det(M)) < 1e-2:
            continue
        G = InverseJacobian(G_a_T=M[None, :4], G_c_T=M[None, 4:], status=Status(1))
        direct = np.linalg.solve(M, np.eye(6))[:, :4]
        dev = np.max(np.abs(one(block_Ja(G)) - direct)) / np.max(np.abs(direct))
        assert dev < 1e-9


def test_block_singular_raises():
    bad = InverseJacobian(G_a_T=np.zeros((1, 4, 6)), G_c_T=np.eye(6)[None, 4:], status=Status(1))
    with pytest.raises(BlockSingular):
        one(block_Ja(bad))


def test_forward_blocks_scale_as_case1(reference):
    # linear actuators: the linear-velocity rows of J_a are dimensionless, the
    # angular-velocity rows carry 1/length
    s = 0.001
    coords = (0.0, 150.0, math.radians(18.0), math.radians(-9.0))
    fwd = fwd_at(G_at(reference, coords))
    scaled = reference.scaled(s)
    fwd_s = fwd_at(G_at(scaled, (0.0, 0.150, coords[2], coords[3])))
    np.testing.assert_allclose(fwd_s.J_a[:3], fwd.J_a[:3], rtol=1e-9, atol=1e-14)
    np.testing.assert_allclose(fwd_s.J_a[3:], fwd.J_a[3:] / s, rtol=1e-9, atol=1e-14)
