import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhjac.errors import SingularLimb
from dhjac.model import X_HAT, norms, resolve_many, resolve_pose
from dhjac.screws import (DENOMINATOR_THRESHOLD, _cross, build_inverse_jacobian,
                          flip_moment_blocks)

from conftest import checked, fd_at, offset_prs_config, random_coords, square_config


def pose_at(cfg, y, z, th_deg, ps_deg):
    """The pose at angles in degrees, as the stack of one that ``resolve_pose`` returns."""
    return resolve_pose(cfg, y, z, math.radians(th_deg), math.radians(ps_deg))


def G_at(pose, **variant):
    """G_a^T, G_c^T and the stacked G^T of a stack of one pose, its refusal raised."""
    G = checked(build_inverse_jacobian(pose, **variant))
    return G.G_a_T[0], G.G_c_T[0], G.stacked[0]


def test_shapes_and_blocks(reference):
    G_a_T, G_c_T, GT = G_at(pose_at(reference, 0, 150, 10, -20))
    assert G_a_T.shape == (4, 6)
    assert G_c_T.shape == (2, 6)
    assert GT.shape == (6, 6)
    assert abs(np.linalg.det(GT)) > 1e-12


def test_pure_heave_rows_equal(reference):
    # all rails are vertical, so heave maps to unit rate on every limb
    G_a_T, _, _ = G_at(pose_at(reference, 0, 150, 0, 0))
    qdot = G_a_T @ np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(qdot, np.ones(4), rtol=1e-12)


def test_actuation_rows_match_fd_ik_at_home(reference):
    coords = (0.0, 150.0, 0.0, 0.0)
    G_a_T, _, _ = G_at(resolve_pose(reference, *coords))
    T, FD = fd_at(reference, coords)
    err = np.max(np.abs(G_a_T @ T - FD)) / np.max(np.abs(FD))
    assert err < 1e-6


def test_constraint_rows_annihilate_feasible_velocity(reference):
    for coords in random_coords(reference, 10, seed=11):
        _, G_c_T, _ = G_at(pose_at(reference, 0.0, coords[1], math.degrees(coords[2]),
                                   math.degrees(coords[3])))
        T, _ = fd_at(reference, coords)
        assert np.max(np.abs(G_c_T @ T)) < 1e-8


def test_row_scale_invariance(reference):
    # the row normalization cancels any rescaling of the screw direction
    pose = pose_at(reference, 0, 150, 15, 25)
    GT = G_at(pose)[2]
    GT2 = G_at(dataclasses.replace(pose, link=3.7 * pose.link))[2]
    np.testing.assert_allclose(GT2, GT, rtol=1e-12, atol=1e-12)


def test_global_scaling_moves_only_moment_blocks(reference):
    s = 0.001
    pose = pose_at(reference, 0, 150, 12, -33)
    scaled = reference.scaled(s, unit="m")
    pose_s = pose_at(scaled, 0.0, 0.150, 12, -33)
    G_a_T, G_c_T, _ = G_at(pose)
    Gs_a_T, Gs_c_T, _ = G_at(pose_s)
    for M, Ms in ((G_a_T, Gs_a_T), (G_c_T, Gs_c_T)):
        np.testing.assert_allclose(Ms[:, :3], M[:, :3], rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(Ms[:, 3:], s * M[:, 3:], rtol=1e-9, atol=1e-15)


def test_singular_limb_raised_at_horizontal_link():
    # link length equal to the lateral offset leaves the rail reciprocal.  Limbs 2 and 4 reach
    # their rails along y and lie flat for any rounding of x; limbs 1 and 3 reach theirs along
    # x, and the rounding of x (4e-14 mm) leaves limb 1 3.8e-6 mm inside its reach
    cfg = square_config(link_length=250.0)
    G = build_inverse_jacobian(resolve_pose(cfg, 0.0, 150.0, 0.0, 0.0))
    with pytest.raises(SingularLimb) as info:
        G.status.check()
    assert str(info.value) == "limb 2: actuation screw reciprocal to rail (|u.s1| = 0.000e+00)"
    assert (G.status.refusals[0].limb, G.status.refusals[0].value) == (2, 0.0)


def horizontal_link_stack(reference):
    """A stack of a reference pose, a pose whose four links are horizontal, and the first
    again, with the reference pose as a stack of one."""
    ok = resolve_pose(reference, 0.0, 150.0, 0.1, 0.2)
    bad = resolve_pose(square_config(link_length=250.0), 0.0, 150.0, 0.0, 0.0)
    # every link at full reach: the IK leaves l_z at 0 or, where x puts the anchor a rounding
    # error inside the reach, at a few micrometres; laid flat here
    flat = bad.link.copy()
    flat[..., 2] = 0.0
    return dataclasses.replace(ok, a=np.concatenate([ok.a, bad.a, ok.a]),
                               link=np.concatenate([ok.link, flat, ok.link])), ok


def test_singular_limb_nan_only_on_the_refused_pose(reference):
    stack, ok = horizontal_link_stack(reference)
    G = build_inverse_jacobian(stack)
    assert G.status.codes() == ["ok", "singular_limb", "ok"]
    assert G.status.refusals[1].limb == 1
    assert np.isnan(G.G_a_T[1]).all() and np.isfinite(G.G_c_T).all()
    alone = G_at(ok)[2]
    for i in (0, 2):
        assert G.stacked[i].tobytes() == alone.tobytes()


def built_flipped(pose):
    """The flipped moment block built on its own, as ``build_inverse_jacobian`` did with a
    ``moment_sign`` of -1.0: the adopted link rows, both moment blocks multiplied by -1.0
    before the division by the denominator.  ``(G_a^T, G_c^T, refused)``, refused rows NaN."""
    u = pose.link / norms(pose.link)[..., None]
    den = u[..., 2:]
    refused = np.abs(den[..., 0]) < DENOMINATOR_THRESHOLD
    if refused.any():
        den = np.where(refused[..., None], math.nan, den)
    Ga = np.concatenate([u, _cross(pose.a, u)], axis=-1)
    a = pose.a.take(pose.cfg.prs_indices(), axis=-2)
    Gc = np.empty(a.shape[:-1] + (6,))
    Gc[..., :3] = X_HAT
    Gc[..., 3:] = _cross(a, X_HAT)
    Ga[..., 3:] *= -1.0
    Gc[..., 3:] *= -1.0
    Ga /= den
    return Ga, Gc, refused.any(axis=-1)


def assert_same_bits(got, want):
    """Equal bit for bit where ``want`` is not NaN, and NaN at the same places."""
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def assert_flipped_as_built(pose):
    G = build_inverse_jacobian(pose)
    flipped = flip_moment_blocks(G)
    Ga, Gc, refused = built_flipped(pose)
    assert_same_bits(flipped.G_a_T, Ga)
    assert_same_bits(flipped.G_c_T, Gc)
    np.testing.assert_array_equal(~flipped.status.ok, refused)
    assert flipped.status.codes() == G.status.codes()
    return G, flipped


def test_flipped_moment_block_refuses_the_adopted_rows(reference):
    # the denominator test comes before any sign, so the flipped variant refuses exactly the
    # rows the adopted recipe refuses; run_validation measures it up to the chain's first
    # refusal on that ground, and derives it from the adopted rows: (-m) / d = -(m / d)
    stack, _ = horizontal_link_stack(reference)
    adopted, flipped = assert_flipped_as_built(stack)
    assert flipped.status.codes() == adopted.status.codes() == ["ok", "singular_limb", "ok"]
    assert [str(flipped.status.error(i)) for i in range(3)] == \
        [str(adopted.status.error(i)) for i in range(3)]
    assert np.isnan(flipped.G_a_T[1]).all()


FLIP_LAYOUTS = {"offset": offset_prs_config, "square": square_config}
ANGLE = st.floats(min_value=-math.radians(50.0), max_value=math.radians(50.0))


@given(layout=st.sampled_from([None, *FLIP_LAYOUTS]),
       coords=st.lists(st.tuples(st.floats(-60.0, 60.0), st.floats(80.0, 220.0), ANGLE, ANGLE),
                       min_size=1, max_size=6),
       singular_at=st.one_of(st.none(), st.integers(0, 6)))
@settings(max_examples=60, deadline=None)
def test_flipped_rows_equal_the_built_variant_bit_for_bit(reference, layout, coords,
                                                          singular_at):
    # the derived flipped rows against the variant built on its own, on any stack: refused
    # poses (unreachable, or a horizontal link spliced in) included
    cfg = reference if layout is None else FLIP_LAYOUTS[layout]()
    pose = resolve_many(cfg, coords)
    if singular_at is not None:
        i = min(singular_at, len(coords))
        bad = resolve_pose(square_config(link_length=250.0), 0.0, 150.0, 0.0, 0.0)
        pose = dataclasses.replace(pose, a=np.insert(pose.a, i, bad.a[0], axis=0),
                                   link=np.insert(pose.link, i, bad.link[0], axis=0))
    assert_flipped_as_built(pose)


def test_rejected_variants_fail_the_oracle(reference):
    # normal-direction rows for the PUS limbs and the flipped moment block
    # both disagree with the finite-difference IK Jacobian away from psi = 0;
    # this pins the adopted recipe (link rows, a x u moments)
    coords = (0.0, 150.0, math.radians(25.0), math.radians(35.0))
    T, FD = fd_at(reference, coords)
    pose = resolve_pose(reference, *coords)
    scale = np.max(np.abs(FD))

    adopted = G_at(pose)[0]
    assert np.max(np.abs(adopted @ T - FD)) / scale < 1e-6

    n_rows = G_at(pose, variant="normal")[0]
    assert np.max(np.abs(n_rows @ T - FD)) / scale > 1e-3

    flipped = flip_moment_blocks(build_inverse_jacobian(pose)).G_a_T[0]
    assert np.max(np.abs(flipped @ T - FD)) / scale > 1e-3

